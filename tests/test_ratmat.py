"""The sparse congruence and product against the dense loops they replaced,
and the metric inverses derived from the one congruence against Gauss-Jordan."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroclosures import bracket, ratmat, sim
from hydroclosures.cli import closure_from_spec
from hydroclosures.closures import BurbyClosure, Metric

from oracles import congruence_dense, inverse_dense

F = Fraction
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
def square_pair(draw):
    n = draw(st.integers(0, 5))
    return [[[draw(ENTRIES) for _ in range(n)] for _ in range(n)] for _ in range(2)]


def matmul(a, b) -> tuple:
    """The dense triple loop."""
    n = len(b)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), F(0))
                       for j in range(n)) for i in range(len(a)))


@settings(max_examples=300, deadline=None)
@given(square_pair())
def test_sparse_product_equals_the_dense_loop(pair):
    a, b = map(ratmat.as_matrix, pair)
    ab = ratmat.product(a, b)
    assert ab == matmul(a, b)
    assert all(type(x) is Fraction for row in ab for x in row)


def check_inverses(m: Metric):
    """g^-1 and T^-1 from the congruence are the Gauss-Jordan inverses,
    exactly, and in Fractions."""
    n = m.dim
    ginv, tinv = m.inverse(), m.Tinv
    assert ginv == inverse_dense(m.g)
    assert tinv == inverse_dense(m.T)
    assert all(type(x) is Fraction for a in (ginv, tinv) for row in a for x in row)
    eye = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
    assert matmul(m.g, ginv) == eye
    assert matmul(m.T, tinv) == eye


def check_degenerate(m: Metric):
    """A degenerate metric has no signature, g^-1 or T^-1: each raises the
    same ValueError."""
    with pytest.raises(ValueError) as sig:
        m.signature
    for inverse in (m.inverse, lambda: m.Tinv):
        with pytest.raises(ValueError) as inv:
            inverse()
        assert str(inv.value) == str(sig.value)


@settings(max_examples=300, deadline=None)
@given(st.one_of(symmetric(), symmetric(zero_diagonal=True), antidiagonal(), degenerate()))
def test_metric_inverses_equal_the_dense_loop(rows):
    m = Metric(rows)
    try:
        inverse_dense(m.g)
    except ZeroDivisionError:
        check_degenerate(m)
    else:
        check_inverses(m)


def _benchmark_specs() -> list[dict]:
    """The closure of every workload command of the benchmark, each input
    variant included, as a spec."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    heights = ["1,1,-2", *workloads.HEIGHTS_N5, *workloads.HEIGHTS_N6]
    return [*({"family": "burby", "level": m} for m in range(1, 12)),
            {"family": "burby", "level": 7, "branch": "minus"},
            {"family": "multidelta", "M": 5}, {"family": "fourfield", "kappa": "1/2"},
            {"family": "generic", "mu2": "nu1*nu3^2 + nu2^2*nu3"},
            *({"family": "waterbag", "heights": h.split(",")} for h in heights)]


def _spec_id(spec: dict) -> str:
    return " ".join(",".join(v) if isinstance(v, list) else str(v) for v in spec.values())


@pytest.mark.parametrize("spec", _benchmark_specs(), ids=_spec_id)
def test_benchmark_metric_inverses_equal_the_dense_loop(spec):
    check_inverses(closure_from_spec(spec).metric)


def test_metric_inverse_of_degenerate_and_empty_metrics():
    empty = Metric(())
    assert empty.signature == (0, 0)
    assert empty.inverse() == () and empty.Tinv == ()
    for rows in ([[0]], [[1, 2], [2, 4]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]]):
        check_degenerate(Metric(rows))


def test_each_metric_is_factored_once(monkeypatch):
    calls = []
    congruence_diagonalize = ratmat.congruence_diagonalize

    def counted(g):
        calls.append(g)
        return congruence_diagonalize(g)

    monkeypatch.setattr(ratmat, "congruence_diagonalize", counted)
    c = BurbyClosure(4)
    assert c.metric.signature == (2, 2)
    c.mu(1)
    bracket.casimirs(c)
    tab = c.derived(sim._ClosureTables)
    assert len(calls) == 1
    assert tab.Tinv.tolist() == [[float(x) for x in row] for row in c.metric.Tinv]


def test_congruence_rejects_an_asymmetric_matrix():
    # an entry whose mirror is zero, and two nonzero mirrors that differ
    for rows in ([[0, 1], [0, 0]], [[1, 2], [3, 1]]):
        with pytest.raises(ValueError, match="symmetric"):
            ratmat.congruence_diagonalize(ratmat.as_matrix(rows))
        with pytest.raises(ValueError, match="symmetric"):
            Metric(rows)
