"""The sparse inverse and congruence against the dense loops they replaced."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroclosures import ratmat

from oracles import congruence_dense, inverse_dense

F = Fraction
# zero-heavy, so that the sparse column operations skip entries
ENTRIES = st.sampled_from([F(0)] * 4 + [F(1), F(-1), F(2), F(1, 2), F(-3, 2)])
NONZERO = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3, 2)])


@st.composite
def symmetric(draw, zero_diagonal=False):
    n = draw(st.integers(1, 5))
    g = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = F(0) if zero_diagonal and i == j else draw(ENTRIES)
    return g


@st.composite
def antidiagonal(draw):
    n = draw(st.integers(1, 6))
    g = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][n - 1 - i] = g[n - 1 - i][i] = draw(NONZERO)
    return g


@st.composite
def degenerate(draw):
    # B diag(c) B^t with B of n rows and r < n columns has rank <= r
    n = draw(st.integers(2, 5))
    r = draw(st.integers(1, n - 1))
    b = [[draw(ENTRIES) for _ in range(r)] for _ in range(n)]
    c = [draw(NONZERO) for _ in range(r)]
    return [[sum(b[i][k] * c[k] * b[j][k] for k in range(r)) for j in range(n)]
            for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(symmetric(), symmetric(zero_diagonal=True), antidiagonal(), degenerate()))
def test_sparse_congruence_equals_the_dense_loop(rows):
    g = ratmat.as_matrix(rows)
    T, d = ratmat.congruence_diagonalize(g)
    assert (T, d) == congruence_dense(g)
    assert all(type(x) is Fraction for row in T for x in row)
    assert all(type(x) is Fraction for x in d)
    n = len(g)
    for i in range(n):
        for j in range(n):
            tgt = sum(T[k][i] * g[k][l] * T[l][j] for k in range(n) for l in range(n))
            assert tgt == (d[i] if i == j else 0)


@st.composite
def square(draw):
    n = draw(st.integers(0, 5))
    return [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]


@st.composite
def permutation_like(draw):
    # one nonzero per row and column, as in the antidiagonal and block
    # off-diagonal metrics
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(n)))
    g = [[F(0)] * n for _ in range(n)]
    for i, j in enumerate(perm):
        g[i][j] = draw(NONZERO)
    return g


@settings(max_examples=300, deadline=None)
@given(st.one_of(square(), permutation_like(), antidiagonal(), degenerate(),
                 symmetric(zero_diagonal=True)))
def test_sparse_inverse_equals_the_dense_loop(rows):
    a = ratmat.as_matrix(rows)
    try:
        expect = inverse_dense(a)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="singular"):
            ratmat.inverse(a)
        return
    inv = ratmat.inverse(a)
    assert inv == expect
    assert all(type(x) is Fraction for row in inv for x in row)


def test_inverse_of_singular_and_empty_matrices():
    assert ratmat.inverse(()) == ()
    for rows in ([[0]], [[1, 2], [2, 4]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]]):
        with pytest.raises(ZeroDivisionError, match="singular"):
            ratmat.inverse(ratmat.as_matrix(rows))


def test_congruence_rejects_an_asymmetric_matrix():
    # an entry whose mirror is zero, and two nonzero mirrors that differ
    for rows in ([[0, 1], [0, 0]], [[1, 2], [3, 1]]):
        with pytest.raises(ValueError, match="symmetric"):
            ratmat.congruence_diagonalize(ratmat.as_matrix(rows))
