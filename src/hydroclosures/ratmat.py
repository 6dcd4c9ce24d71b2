"""Small exact linear algebra over Fractions.

Used for metric inverses (the quadratic invariant 0.5 * nu . g^-1 nu) and
for computing the signature of a constant symmetric metric by congruence
(symmetric pivoting), avoiding any floating-point sign misclassification.

Both kernels skip zeros. They keep a matrix as sparse rows (or columns):
one {index: entry} dict per row, holding its nonzero entries only, and an
entry that cancels is deleted, so every key is a nonzero entry. A zero test
is a key lookup, and an update visits only the nonzero entries of the row
it adds, so a permutation-like metric (antidiagonal, block off-diagonal)
costs a few Fraction operations per row instead of n. The results are
those of the dense loops, entry for entry.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]

_ZERO = Fraction(0)


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    mat = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                for row in rows)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    return mat


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination with partial pivoting, on
    the sparse rows of [a | I]."""
    n = len(a)
    aug = [{j: x for j, x in enumerate(row) if x} for row in a]
    for i, row in enumerate(aug):
        row[n + i] = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if col in aug[r]), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        prow = aug[col]
        p = prow[col]
        if p != 1:
            prow = aug[col] = {j: x / p for j, x in prow.items()}
        for r, row in enumerate(aug):
            f = row.get(col) if r != col else None
            if f is not None:
                f = -f
                for j, x in prow.items():
                    y = row.get(j)
                    y = f * x if y is None else y + f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
    out = [[_ZERO] * n for _ in range(n)]
    for i, row in enumerate(aug):
        for j, x in row.items():
            if j >= n:  # the left half is now the identity
                out[i][j - n] = x
    return tuple(map(tuple, out))


def congruence_diagonalize(g: Matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Return (T, d) with T^t g T = diag(d), exactly.

    Symmetric Gaussian elimination: when no nonzero diagonal pivot exists,
    a nonzero off-diagonal entry g_ij is first moved onto the diagonal by
    the congruence column operation C_i <- C_i + C_j.

    The working matrix a is kept as sparse rows and T as sparse columns.
    Every operation keeps a symmetric, so the rows with a nonzero in
    column j are the keys of row j: a column operation or swap visits
    those rows only.
    """
    n = len(g)
    a = [{j: x for j, x in enumerate(row) if x} for row in g]
    if any(a[j].get(i) != x for i, row in enumerate(a) for j, x in row.items()):
        raise ValueError("metric must be symmetric")
    t = [{i: Fraction(1)} for i in range(n)]  # the columns of T

    def add(dst: dict, j: int, y: Fraction):
        old = dst.get(j)
        if old is not None:
            y += old
            if not y:
                del dst[j]
                return
        dst[j] = y

    def col_op(dst: int, src: int, factor: Fraction):
        # C_dst <- C_dst + factor * C_src, then the same on the rows of a
        for r, x in list(a[src].items()):  # column src, read before it moves
            add(a[r], dst, factor * x)
        for c, x in a[src].items():
            add(a[dst], c, factor * x)
        for r, x in t[src].items():
            add(t[dst], r, factor * x)

    def col_swap(i: int, j: int):
        for r in set(a[i]) | set(a[j]):  # the rows with a nonzero in column i or j
            row = a[r]
            x, y = row.pop(i, None), row.pop(j, None)
            if x is not None:
                row[j] = x
            if y is not None:
                row[i] = y
        a[i], a[j] = a[j], a[i]
        t[i], t[j] = t[j], t[i]

    for i in range(n):
        if i not in a[i]:
            j = next((r for r in range(i + 1, n) if r in a[r]), None)
            if j is not None:
                col_swap(i, j)
            else:
                j = min((c for c in a[i] if c > i), default=None)
                if j is None:
                    continue  # row/col i is zero in the trailing block
                col_op(i, j, Fraction(1))
        # each operation clears a[i][j] and changes no other entry of row i
        for j in sorted(c for c in a[i] if c > i):
            col_op(j, i, -a[i][j] / a[i][i])
    T = [[_ZERO] * n for _ in range(n)]
    for c, col in enumerate(t):
        for r, x in col.items():
            T[r][c] = x
    return tuple(map(tuple, T)), tuple(a[i].get(i, _ZERO) for i in range(n))


def signature(g: Matrix) -> tuple[int, int]:
    """(positive count, negative count) of the symmetric matrix g.

    Raises on a degenerate metric (a zero in the congruence diagonal).
    """
    _, d = congruence_diagonalize(as_matrix(g))
    if any(x == 0 for x in d):
        raise ValueError("degenerate metric (zero eigenvalue)")
    pos = sum(1 for x in d if x > 0)
    return pos, len(d) - pos
