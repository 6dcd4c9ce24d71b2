"""Small exact linear algebra over Fractions.

Used for metric inverses (the quadratic invariant 0.5 * nu . g^-1 nu) and
for computing the signature of a constant symmetric metric by congruence
(symmetric pivoting), avoiding any floating-point sign misclassification.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    mat = tuple(tuple(Fraction(x) for x in row) for row in rows)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    return mat


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination with partial pivoting."""
    n = len(a)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def congruence_diagonalize(g: Matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Return (T, d) with T^t g T = diag(d), exactly.

    Symmetric Gaussian elimination: when no nonzero diagonal pivot exists,
    a nonzero off-diagonal entry g_ij is first moved onto the diagonal by
    the congruence column operation C_i <- C_i + C_j.
    """
    if not is_symmetric(g):
        raise ValueError("metric must be symmetric")
    n = len(g)
    a = [list(row) for row in g]
    t = [list(row) for row in identity(n)]

    def col_op(dst: int, src: int, factor: Fraction):
        # C_dst <- C_dst + factor * C_src (and the symmetric row op on a);
        # a zero source entry leaves its target as it is
        for r in range(n):
            if a[r][src]:
                a[r][dst] += factor * a[r][src]
        for c in range(n):
            if a[src][c]:
                a[dst][c] += factor * a[src][c]
        for r in range(n):
            if t[r][src]:
                t[r][dst] += factor * t[r][src]

    def col_swap(i: int, j: int):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for c in range(n):
            a[i][c], a[j][c] = a[j][c], a[i][c]
        for r in range(n):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    for i in range(n):
        if a[i][i] == 0:
            j = next((r for r in range(i + 1, n) if a[r][r] != 0), None)
            if j is not None:
                col_swap(i, j)
            else:
                j = next((c for c in range(i + 1, n) if a[i][c] != 0), None)
                if j is None:
                    continue  # row/col i is zero in the trailing block
                col_op(i, j, Fraction(1))
        for j in range(i + 1, n):
            if a[i][j]:
                col_op(j, i, -a[i][j] / a[i][i])
    return tuple(tuple(row) for row in t), tuple(a[i][i] for i in range(n))


def signature(g: Matrix) -> tuple[int, int]:
    """(positive count, negative count) of the symmetric matrix g.

    Raises on a degenerate metric (a zero in the congruence diagonal).
    """
    _, d = congruence_diagonalize(as_matrix(g))
    if any(x == 0 for x in d):
        raise ValueError("degenerate metric (zero eigenvalue)")
    pos = sum(1 for x in d if x > 0)
    return pos, len(d) - pos
