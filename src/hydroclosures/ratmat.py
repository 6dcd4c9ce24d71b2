"""Small exact linear algebra over Fractions: one factorization and one
product.

A constant symmetric metric g is factored once, by congruence (symmetric
pivoting): T^t g T = diag(d). Everything else follows from (T, d) without
another elimination: the signature is the signs of d, with no
floating-point sign misclassification; g^-1 = T D^-1 T^t gives the
quadratic invariant 0.5 * nu . g^-1 nu; and T^-1 = D^-1 T^t g is the
inverse frame of the split scheme. `closures.Metric` holds the factors.

Both kernels skip zeros. The congruence keeps its working matrix as sparse
rows and T as sparse columns: one {index: entry} dict each, holding its
nonzero entries only, and an entry that cancels is deleted, so every key
is a nonzero entry. A zero test is a key lookup, and an update visits only
the nonzero entries of the row it adds, so a permutation-like metric
(antidiagonal, block off-diagonal) costs a few Fraction operations per row
instead of n. The product multiplies nonzero entries only. The results are
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


def product(a: Matrix, b: Matrix) -> Matrix:
    """The exact product a b of two n x n matrices, from their nonzero
    entries only."""
    brows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = {}
        for k, x in enumerate(row):
            if x:
                for j, y in brows[k]:
                    z = acc.get(j)
                    acc[j] = x * y if z is None else z + x * y
        out.append(tuple(acc.get(j, _ZERO) for j in range(len(brows))))
    return tuple(out)
