"""Closure families: exact polynomial structure, maps, and inversion."""

import inspect
import random
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hydroclosures import closures
from hydroclosures.closures import (BurbyClosure, ColdClosure, InversionError,
                                    _newton_starts, _solve_float,
                                    FourFieldClosure, GenericClosure, Metric,
                                    MultiDeltaClosure, WaterbagClosure,
                                    burby_mu, equation_of_state, multidelta_inverse_map,
                                    multidelta_normal_map,
                                    newton_invert, waterbag_inverse_map,
                                    waterbag_normal_map,
                                    waterbag_s, waterbag_s_at_zero, waterbag_tails)
from hydroclosures.moments import DensityError, p_from_mu
from hydroclosures.poly import MultiPoly

from oracles import (burby_anti_triangular, burby_mu_closed, fourfield_family,
                     gamma_n, inversion_condition_backsub, multidelta_mu_loop, poly_vars,
                     s_from_mu, waterbag_inverse_map_loop, waterbag_mu_loop,
                     waterbag_normal_map_loop, waterbag_s_at_zero_loop, waterbag_s_loop,
                     waterbag_tails_loop)

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# Multi-delta
# ---------------------------------------------------------------------------


def test_multidelta_small_cases():
    # M=2, variables (xi_2, eta_2): mu_n = xi * eta^n
    xi, eta = poly_vars(2)
    c = MultiDeltaClosure(2)
    assert c.mu(1) == xi * eta
    assert c.mu(3) == xi * eta ** 3
    assert c.nu_count == 2
    assert c.metric.signature == (1, 1)


def test_multidelta_metric_block():
    c = MultiDeltaClosure(3)
    g = c.metric.g
    # off-diagonal identity blocks pairing xi_k with eta_k
    for i in range(2):
        for j in range(2):
            assert g[i][j + 2] == (1 if i == j else 0)
            assert g[i][j] == 0 and g[i + 2][j + 2] == 0


def test_multidelta_map_round_trip():
    a = (F(1), F(2), F(1, 2))
    v = (F(-1), F(1, 3), F(2))
    rho, u, xi, eta = multidelta_normal_map(a, v)
    assert rho == sum(a)
    assert multidelta_inverse_map(rho, u, xi, eta) == (a, v)


def test_normal_maps_keep_exact_input_exact():
    # int input gives the Fractions of Fraction input and float input the
    # same values as floats; the multidelta map keeps numpy float64 rows
    # (a Fraction factor would turn them into object arrays)
    cases = [
        (multidelta_normal_map, ([1, 1], [1, -1])),
        (multidelta_normal_map, ([1, 2, 3], [1, -1, 2])),
        (multidelta_inverse_map, (2, 0, [1], [1])),
        (lambda *args: waterbag_inverse_map([1, 1, -2], *args), (1, 0, [0])),
        (lambda *args: waterbag_inverse_map([1, 1, -2], *args), (3, 1, [2])),
        (lambda v: waterbag_normal_map([1, 1, -2], v), ([1, 2, 3],)),
    ]

    def flat(out):
        return [y for x in out for y in (flat(x) if isinstance(x, tuple) else [x])]

    def convert(args, kind):
        return [convert(x, kind) if isinstance(x, list) else kind(x) for x in args]

    for fn, args in cases:
        exact = flat(fn(*args))
        assert all(type(x) is Fraction for x in exact), (fn, args)
        assert exact == flat(fn(*convert(args, Fraction)))
        floats = flat(fn(*convert(args, float)))
        assert all(type(x) is float for x in floats)
        assert floats == [float(x) for x in exact]
    assert multidelta_normal_map([1, 1], [1, -1]) == (F(2), F(0), (F(1, 2),), (F(-1),))
    assert waterbag_inverse_map([1, 1, -2], 1, 0, [0]) == (F(-1, 4), F(-1, 4), F(1, 4))
    # numpy input, as the compare command passes it: float64 rows, and the
    # same values as the float path point by point
    a = [np.array([0.5, 0.25]), np.array([0.5, 0.75])]
    v = [np.array([0.2, 0.1]), np.array([-0.2, 0.3])]
    rows = flat(multidelta_normal_map(a, v))
    assert all(r.dtype == np.float64 for r in rows)
    for i in range(2):
        point = flat(multidelta_normal_map([x[i] for x in a], [x[i] for x in v]))
        assert [r[i] for r in rows] == [float(x) for x in point]
    # the waterbag maps too: no Fraction height or partial sum may touch
    # the arrays (a Fraction times a float64 array is an object array)
    heights = [1, 1, -2]
    for fn, args in [
        (waterbag_inverse_map, (np.array([1.0, 1.1]), np.zeros(2), [np.array([0.1, 0.2])])),
        (waterbag_normal_map, ([np.array([0.2, 0.1]), np.array([-0.2, 0.3]),
                                np.array([0.5, 0.6])],)),
    ]:
        rows = flat(fn(heights, *args))
        assert all(r.dtype == np.float64 for r in rows), fn
        for i in range(2):
            point = flat(fn(heights, *convert(args, lambda x: float(x[i]))))
            assert [r[i] for r in rows] == point


def test_multidelta_mu_matches_map():
    # mu_n evaluated at the normal-variable image equals sum xi_k eta_k^n
    a = (F(1), F(3))
    v = (F(0), F(2))
    rho, u, xi, eta = multidelta_normal_map(a, v)
    c = MultiDeltaClosure(2)
    for n in range(1, 5):
        assert c.mu(n).eval([xi[0], eta[0]]) == xi[0] * eta[0] ** n


# ---------------------------------------------------------------------------
# Waterbag
# ---------------------------------------------------------------------------


def test_waterbag_height_validation():
    with pytest.raises(ValueError):
        WaterbagClosure([F(1), F(1)])          # heights must sum to zero
    with pytest.raises(ValueError):
        WaterbagClosure([F(1), F(-1), F(1), F(-1)])  # zero partial sum
    with pytest.raises(ValueError):
        WaterbagClosure([F(1)])
    # a zero last height makes the partial sum before it zero
    with pytest.raises(ValueError, match="partial sum sigma_3 = 0"):
        WaterbagClosure([F(1), F(1), F(-2), F(0)])


def test_waterbag_single_bag_constants():
    # N=2: no normal variables; mu_2 = 1/(12 a1^2)
    a1 = F(3)
    mu2 = WaterbagClosure([a1, -a1]).mu(2)
    assert mu2 == waterbag_mu_loop([a1, -a1], 2)
    assert mu2.nvars == 0
    assert mu2.constant_term() == F(1, 12 * a1 ** 2)
    assert waterbag_mu_loop([a1, -a1], 1).is_zero


def test_waterbag_s_constant_terms():
    a = [F(1), F(1), F(-2)]
    for n in range(2, 5):
        want = F(1 + (-1) ** n, (n + 1) * 2 ** (n + 1) * a[-1] ** n)
        assert waterbag_s(a, n).constant_term() == want


@st.composite
def waterbag_heights(draw, low=3, high=6):
    """Valid heights for N = low..high: nonzero partial sums, a_N = -sum of
    the rest."""
    N = draw(st.integers(low, high))
    a = [F(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.integers(1, 2)))
         for _ in range(N - 1)]
    sigma = [sum(a[:k + 1]) for k in range(N - 1)]
    assume(all(sigma))
    return a + [-sigma[-1]]


@settings(max_examples=10, deadline=None)
@given(waterbag_heights())
def test_waterbag_s_at_zero_equals_expanded_constant(a):
    # the verify suite's S_n check reads these instead of expanding S_n
    top = 2 * len(a) - 3
    consts = waterbag_s_at_zero(a, top)
    assert len(consts) == top + 1
    for n in range(top + 1):
        assert consts[n] == waterbag_s(a, n).constant_term(), (a, n)


@settings(max_examples=30, deadline=None)
@given(waterbag_heights(2, 7), st.integers(0, 5))
def test_waterbag_closed_forms_match_their_loops(a, n):
    # one contour construction and one power sum give every closed form
    # exactly as its own loop does, and the closure, from its seed, mu_n
    assert waterbag_tails(a) == waterbag_tails_loop(a)
    if n:
        assert WaterbagClosure(a).mu(n) == waterbag_mu_loop(a, n)
    assert waterbag_s(a, n) == waterbag_s_loop(a, n)
    assert waterbag_s_at_zero(a, 5) == waterbag_s_at_zero_loop(a, 5)


@pytest.mark.parametrize("M", range(1, 5))
def test_multidelta_mu_matches_its_loop(M):
    c = MultiDeltaClosure(M)
    for n in range(1, 6):
        assert c.mu(n) == multidelta_mu_loop(M, n)


RATIONALS = st.fractions(-3, 3, max_denominator=6)


@settings(max_examples=25, deadline=None)
@given(waterbag_heights(3, 7), st.data())
def test_polynomial_contour_map_evaluates_to_the_rational_map(a, data):
    nv = len(a) - 2
    rho = data.draw(st.fractions(F(1, 4), 3, max_denominator=6))
    u = data.draw(RATIONALS)
    nu = data.draw(st.lists(RATIONALS, min_size=nv, max_size=nv))
    v = waterbag_inverse_map(a, rho, u, nu)
    assert v == waterbag_inverse_map_loop(a, rho, u, nu)
    assert [vk.eval(nu) for vk in waterbag_inverse_map(a, rho, u, poly_vars(nv))] == list(v)
    assert waterbag_normal_map(a, v) == waterbag_normal_map_loop(a, v) == (rho, u, tuple(nu))


FLOATS = st.floats(-3, 3)


@settings(max_examples=25, deadline=None)
@given(waterbag_heights(2, 7), st.data())
def test_float_contour_maps_match_their_loops_bit_for_bit(a, data):
    nv = len(a) - 2
    rho = data.draw(st.floats(0.25, 3))
    u = data.draw(FLOATS)
    nu = data.draw(st.lists(FLOATS, min_size=nv, max_size=nv))

    def bits(values):
        return [x.hex() for x in values]

    v = waterbag_inverse_map(a, rho, u, nu)
    assert all(type(x) is float for x in v)
    assert bits(v) == bits(waterbag_inverse_map_loop(a, rho, u, nu))
    rho2, u2, nu2 = waterbag_normal_map(a, v)
    assert all(type(x) is float for x in (rho2, u2, *nu2))
    want = waterbag_normal_map_loop(a, v)
    assert bits([rho2, u2, *nu2]) == bits([want[0], want[1], *want[2]])
    # numpy rows: the same bits, point by point
    rows = waterbag_inverse_map(a, np.array([rho, 2 * rho]), np.array([u, -u]),
                                [np.array([x, x / 3]) for x in nu])
    want = waterbag_inverse_map_loop(a, np.array([rho, 2 * rho]), np.array([u, -u]),
                                     [np.array([x, x / 3]) for x in nu])
    assert all(r.dtype == np.float64 and r.tobytes() == w.tobytes()
               for r, w in zip(rows, want))


def test_waterbag_gamma_identity():
    for heights in ([F(1), F(1), F(-2)], [F(2), F(-1), F(1), F(-2)]):
        c = WaterbagClosure(heights)
        L = c.Lambda
        for n in range(1, 2 * c.N - 2):
            want = MultiPoly.const(c.nu_count, L ** n) - n * L * c.mu(n - 1)
            assert c.gamma(n) == want


def test_waterbag_map_round_trip():
    a = (F(1), F(1), F(-2))
    v = (F(0), F(1, 2), F(2))
    rho, u, nu = waterbag_normal_map(a, v)
    assert waterbag_inverse_map(a, rho, u, nu) == v
    c = WaterbagClosure(a)
    for n in range(1, 4):
        # compiled float evaluation agrees with the exact polynomial
        exact = float(c.mu(n).eval(list(nu)))
        assert abs(c.mu_value(n, [float(x) for x in nu]) - exact) < 1e-14


def test_waterbag_signature_counts_positive_heights():
    assert WaterbagClosure([F(1), F(1), F(-2)]).metric.signature == (0, 1)
    assert WaterbagClosure([F(2), F(-1), F(-1)]).metric.signature == (1, 0)
    assert WaterbagClosure(
        [F(1), F(-2), F(2), F(-1)]).metric.signature == (1, 1)


# ---------------------------------------------------------------------------
# Level hierarchy (antidiagonal metric family)
# ---------------------------------------------------------------------------


def test_level_golden_polynomials():
    for m in range(2, 6):
        names = [f"nu{i + 1}" for i in range(m)]
        lines = (GOLDEN / f"burby_m{m}.txt").read_text().splitlines()
        assert len(lines) == m
        for n, line in enumerate(lines, start=1):
            assert burby_mu(m, n).to_text(names) == line.strip()


def test_level_recursion_equals_closed_form():
    for m in range(1, 7):
        for n in range(1, m + 1):
            assert burby_mu(m, n) == burby_mu_closed(m, n)
    for m, n in ((3, 0), (3, 4), (0, 0)):
        with pytest.raises(ValueError, match="1 <= n <= m"):
            burby_mu_closed(m, n)


def test_closure_closed_forms_equal_burby_mu():
    """A closure's closed forms share one memo over n, whatever order they
    are asked in; each is still `burby_mu(m, n)`, term order included."""
    for m in range(1, 17):
        expect = [burby_mu(m, n) for n in range(1, m + 1)]
        for branch in ("plus", "minus") if m % 2 else ("plus",):
            for order in (1, -1):
                c = BurbyClosure(m, branch)
                got = {n: c.closed_form(n) for n in range(1, m + 1)[::order]}
                got = [got[n] for n in range(1, m + 1)]
                assert got == expect, (m, branch)
                assert [list(p.terms) for p in got] == [list(p.terms) for p in expect]
    for m, n in ((1, 2), (3, 0), (3, 4)):
        with pytest.raises(ValueError, match="1 <= n <= m"):
            BurbyClosure(m).closed_form(n)


def test_level_truncation_and_top():
    for m in range(1, 7):
        assert burby_mu(m, m) == MultiPoly.monomial(
            m, (0,) * (m - 1) + (m + 1,), F(1, m + 1))
        c = BurbyClosure(m)
        for n in range(m + 1, m + 4):
            assert c.mu(n).is_zero


def test_level_derivative_structure():
    # dmu_n/dnu_k vanishes for k < n and equals nu_m^n at k = n;
    # every term has weight n(m+1) when nu_j carries weight j.
    for m in range(2, 7):
        for n in range(1, m + 1):
            p = burby_mu(m, n)
            for k in range(n - 1):
                assert p.diff(k).is_zero
            assert p.diff(n - 1) == MultiPoly.monomial(
                m, (0,) * (m - 1) + (n,), 1)
            for exps, _ in p.sorted_terms():
                assert sum((j + 1) * e for j, e in enumerate(exps)) == n * (m + 1)


def test_level_moments_are_anti_triangular():
    # the identities back-substitution rests on, on every level the verify
    # suite's default range reaches and on both branches
    for m in range(1, 12):
        for branch in (("plus", "minus") if m % 2 else ("plus",)):
            assert burby_anti_triangular(BurbyClosure(m, branch=branch)), (m, branch)


def test_level_inversion_float_accuracy():
    rng = random.Random(7)
    for m in range(2, 6):
        c = BurbyClosure(m)
        for _ in range(25):
            nu = [rng.uniform(-2, 2) for _ in range(m)]
            nu[-1] = abs(nu[-1]) + 0.5
            mus = [c.mu_value(n, nu) for n in range(1, m + 1)]
            back = c.invert(mus)
            for b, want in zip(back, nu):
                assert abs(b - want) <= 1e-12 * max(1.0, abs(want))


def test_level_minus_branch_flips():
    m = 3
    plus, minus = BurbyClosure(m), BurbyClosure(m, branch="minus")
    for n in range(1, m + 1):
        assert minus.mu(n) == (-1) ** n * plus.mu(n)
    assert minus.metric.signature == tuple(reversed(plus.metric.signature))
    with pytest.raises(ValueError):
        BurbyClosure(2, branch="minus")


def test_level_signature_split():
    for m in range(1, 9):
        sig = BurbyClosure(m).metric.signature
        assert sorted(sig, reverse=True) == [(m + 1) // 2, m // 2]


def test_float_inversions_never_return_a_non_finite_nu():
    # (m+1)|mu_m| overflowed to inf, and the inversion returned (nan, nan);
    # a Newton start from |mu_2|^(1/3) = 1e100 overflowed in a power
    c = BurbyClosure(2)
    with pytest.raises(ValueError, match=r"overflows: \(m\+1\)\|mu_m\| = inf"):
        c.invert([1e308, 1e308])
    with pytest.raises(ValueError, match=r"is not finite: nu = \[inf, "):
        c.invert([1e308, 1e-300])
    with pytest.raises(InversionError, match="no Newton start solves"):
        newton_invert(MultiDeltaClosure(2), [1e300, 1e300])


def test_burby_invert_rejects_bad_branch():
    with pytest.raises(ValueError):
        BurbyClosure(2, branch="sideways")


def test_burby_invert_reads_the_cached_moments(monkeypatch):
    c = BurbyClosure(11)
    nu, mus, _ = c.sample_round_trip()

    def rebuilt(*args):
        raise AssertionError("burby_mu rebuilt during an inversion")

    monkeypatch.setattr(closures, "burby_mu", rebuilt)
    back = c.invert(mus)
    assert max(abs(b - float(v)) / abs(float(v)) for b, v in zip(back, nu)) < 1e-12
    assert burby_anti_triangular(c)


@pytest.mark.parametrize("right, wrong, levels", [
    # chi_n with the wrong sign
    ("mu_values[n - 1] - chi", "mu_values[n - 1] + chi", [3, 5, 8, 11]),
    # the minus branch's (-1)^n dropped from the coefficient of nu_n
    ("/ (sign * nu_m) ** n", "/ nu_m ** n", [3, 7, 15]),
], ids=["chi-sign", "coefficient-sign"])
def test_round_trip_check_catches_a_wrong_inversion(monkeypatch, right, wrong, levels):
    """Negative control: the round trip at the verify sample point
    (1/2, ..., 1/2, 2s) passes on every level below and fails once the
    inversion has one wrong sign (odd levels on the minus branch)."""

    def round_trip_ok(m):
        closure = BurbyClosure(m, branch="minus" if m % 2 else "plus")
        return {name: ok for name, ok, _ in closure.identities()}["inversion round trip"]

    assert all(round_trip_ok(m) for m in levels)
    src = textwrap.dedent(inspect.getsource(closures.burby_invert))
    assert src.count(right) == 1
    namespace = dict(vars(closures))
    exec(src.replace(right, wrong), namespace)
    monkeypatch.setattr(closures, "burby_invert", namespace["burby_invert"])
    assert not any(round_trip_ok(m) for m in levels)


BURBY_LEVELS = [(m, branch) for m in range(1, 24)
                for branch in (("plus", "minus") if m % 2 else ("plus",))]


@pytest.mark.parametrize("m, branch", BURBY_LEVELS)
def test_round_trip_within_its_condition_bound(m, branch):
    # a fixed 1e-12 bound fails 23 minus (rel err 7.2e-11, kappa = 3.9e6)
    err, bound = BurbyClosure(m, branch=branch).round_trip_error()
    assert err <= bound


@pytest.mark.parametrize("m, branch", BURBY_LEVELS)
def test_inversion_condition_equals_the_back_substitution(m, branch):
    # J^-1 by `_solve_float` columns over the compiled gradients: the same
    # kappa, bit for bit, as each column's triangular back-substitution
    closure = BurbyClosure(m, branch=branch)
    nu, mus, _ = closure.sample_round_trip()
    assert closure.inversion_condition(nu, mus) == inversion_condition_backsub(closure, nu, mus)


@pytest.mark.parametrize("m, branch", [(5, "plus"), (14, "plus"), (23, "plus"),
                                       (23, "minus")])
def test_round_trip_bound_catches_an_off_recovery(monkeypatch, m, branch):
    """Negative control: one recovered nu off by 10^3 kappa u, relative,
    fails the round trip."""
    closure = BurbyClosure(m, branch=branch)
    nu, mus, back = closure.sample_round_trip()
    push = 1e3 * closure.inversion_condition(nu, mus) * 2.0 ** -53
    off = list(back)
    off[m // 2] *= 1 + push
    monkeypatch.setattr(closure, "sample_round_trip", lambda: (nu, mus, tuple(off)))
    err, bound = closure.round_trip_error()
    assert err > bound


@pytest.mark.parametrize("rho", [0, F(-1, 2), np.array([1.0, 0.0, 2.0])],
                         ids=["zero", "negative", "array"])
def test_every_density_formula_rejects_nonpositive_density(rho):
    # one check serves p_from_mu and the four normal maps; each map below
    # sees total density rho
    zero = rho * 0
    calls = [
        lambda: p_from_mu(rho, zero, [zero]),
        lambda: multidelta_normal_map([rho], [zero]),
        lambda: multidelta_inverse_map(rho, zero, [], []),
        lambda: waterbag_normal_map([1, -1], [zero, rho]),
        lambda: waterbag_inverse_map([1, -1], rho, zero, []),
    ]
    for call in calls:
        with pytest.raises(DensityError):
            call()


# ---------------------------------------------------------------------------
# Four-field family
# ---------------------------------------------------------------------------


def test_fourfield_exact_polynomials():
    k = F(1, 2)
    c = FourFieldClosure(k)
    g2, g3 = poly_vars(2)
    assert c.mu(1) == g2 * g3
    assert c.mu(2) == g2 ** 3 + k * g2 * g3 ** 2
    assert c.mu(3) == k * g2 * g3 * (3 * g2 ** 2 + k * g3 ** 2)
    assert c.mu(4) == k * (F(9, 5) * g2 ** 5 + 6 * k * g2 ** 3 * g3 ** 2
                           + k ** 2 * g2 * g3 ** 4)
    assert c.mu(5) == k ** 2 * g2 * g3 * (9 * g2 ** 4 + 10 * k * g2 ** 2 * g3 ** 2
                                          + k ** 2 * g3 ** 4)


def test_fourfield_recursion_regenerates():
    k = F(2, 3)
    c = FourFieldClosure(k)
    for n in range(3, 6):
        # mu_n = (1/(n+1)) grad(mu_{n-1}) . g . grad(mu_2), antidiagonal g
        p, q = c.mu(n - 1), c.mu(2)
        rec = F(1, n + 1) * (p.diff(0) * q.diff(1) + p.diff(1) * q.diff(0))
        assert c.mu(n) == rec


def test_fourfield_kappa_zero_truncates():
    c = FourFieldClosure(F(0))
    assert not c.mu(2).is_zero
    for n in range(3, 7):
        assert c.mu(n).is_zero


def test_fourfield_velocity_centered_moments():
    # S_n via re-centering agrees with the direct expressions
    k = F(3, 4)
    c = FourFieldClosure(k)
    g2, g3 = poly_vars(2)
    mus = [c.mu(n) for n in range(1, 6)]
    S = s_from_mu(mus)
    assert S[0] == g2 ** 3 + g2 * (k - g2) * g3 ** 2
    assert S[1] == g2 * g3 * (k - g2) * (3 * g2 ** 2 + (k - 2 * g2) * g3 ** 2)


# ---------------------------------------------------------------------------
# Generation from mu_2
# ---------------------------------------------------------------------------


def test_generator_reproduces_families():
    cases = [MultiDeltaClosure(2), MultiDeltaClosure(3), BurbyClosure(3),
             FourFieldClosure(F(1, 2))]
    for c in cases:
        gen = GenericClosure(c.mu(2), c.metric)
        for n in range(1, 2 * c.nu_count + 2):
            assert gen.mu(n) == c.mu(n), (c.name, n)


def _burby_direct(m, sign=1):
    def mu(n):
        if n > m:
            return MultiPoly.zero(m)
        assert burby_mu(m, n) == burby_mu_closed(m, n)
        return sign ** n * burby_mu_closed(m, n)
    return mu


WATERBAG_ORACLE_HEIGHTS = {3: [F(1), F(1), F(-2)],
                           5: [F(1), F(1), F(1), F(-1), F(-2)],
                           6: [F(1), F(-3), F(3), F(1), F(-1), F(-1)]}

# (closure, its mu_n by a direct formula independent of the mu_2 recurrence)
ORACLE_CASES = {
    "multidelta-M1": (lambda: MultiDeltaClosure(1), lambda n: multidelta_mu_loop(1, n)),
    "multidelta-M2": (lambda: MultiDeltaClosure(2), lambda n: multidelta_mu_loop(2, n)),
    "multidelta-M3": (lambda: MultiDeltaClosure(3), lambda n: multidelta_mu_loop(3, n)),
    "multidelta-M5": (lambda: MultiDeltaClosure(5), lambda n: multidelta_mu_loop(5, n)),
    "cold": (ColdClosure, lambda n: MultiPoly.zero(0)),
    "fourfield-1/2": (lambda: FourFieldClosure(F(1, 2)),
                      lambda n: fourfield_family(F(1, 2))["mu"][n - 1]),
    "fourfield-0": (lambda: FourFieldClosure(F(0)),
                    lambda n: fourfield_family(F(0))["mu"][n - 1]),
    **{f"burby-m{m}": (lambda m=m: BurbyClosure(m), _burby_direct(m))
       for m in (1, 2, 3, 6, 8)},
    **{f"burby-m{m}-minus": (lambda m=m: BurbyClosure(m, branch="minus"),
                             _burby_direct(m, -1))
       for m in (1, 3, 7)},
    **{f"waterbag-N{N}": (lambda a=a: WaterbagClosure(a), lambda n, a=a: waterbag_mu_loop(a, n))
       for N, a in WATERBAG_ORACLE_HEIGHTS.items()},
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_generated_mu_and_gamma_equal_direct_formulas(case):
    make, direct = ORACLE_CASES[case]
    c = make()
    # every index the bracket coefficients reference (the published
    # four-field list stops at mu_5 = mu_{2 nv + 1})
    for n in range(1, 2 * c.nu_count + 2):
        want = direct(n)
        assert c.mu(n) == want, (case, n)
        assert c.gamma(n) == gamma_n(want, n), (case, n)


def test_generic_closure_takes_a_cubic_at_most():
    g = Metric([[0, 1], [1, 0]])
    for text in ("nu1^2*nu2 + nu2^2", "nu1*nu2 + 1", "nu2", "3"):
        assert GenericClosure(MultiPoly.parse(text, varnames=["nu1", "nu2"]), g).nu_count == 2
    assert GenericClosure(MultiPoly.zero(2), g).mu(3).is_zero
    for text, degree in (("nu1^3*nu2", 4), ("nu1^30000*nu2", 30001)):
        with pytest.raises(ValueError, match=f"total degree <= 3, got degree {degree}"):
            GenericClosure(MultiPoly.parse(text), g)


def test_generator_reproduces_waterbag():
    heights = [F(1), F(1), F(-2)]
    c = WaterbagClosure(heights)
    gen = GenericClosure(c.mu(2), c.metric)
    for n in range(1, 2 * c.N - 2):
        assert gen.mu(n) == waterbag_mu_loop(heights, n)


def _double_loop_mu(closure, top):
    """mu_1..mu_top by the recurrence with grad mu_n . g . grad mu_2 summed
    product by product over (i, j)."""
    nv, g = closure.nu_count, closure.metric.g
    mu = {0: MultiPoly.const(nv, 1), 1: closure.mu(1), 2: closure.mu(2)}

    def grad(p):
        return [p.diff(k) for k in range(nv)]

    for n in range(3, top + 1):
        a, b = grad(mu[n - 1]), grad(mu[2])
        pair = MultiPoly.zero(nv)
        for i in range(nv):
            for j in range(nv):
                if g[i][j]:
                    pair = pair + a[i] * g[i][j] * b[j]
        mu[n] = (pair + 2 * mu[1] * gamma_n(mu[n - 1], n - 1)
                 + (n - 1) * mu[n - 2] * gamma_n(mu[2], 2)) / (n + 1)
    return mu


def test_generated_mu_keep_the_double_loop_term_order():
    # MultiPoly.terms lists the terms in the order arithmetic first produced
    # them, and a pairing that sums g . grad mu_2 row by row first would
    # change that order; no value depends on it (compile_float sorts the
    # terms and eval at a rational point is exact)
    c = GenericClosure(MultiPoly.parse("nu1^3 + nu1*nu2^2 + nu2^3"),
                       Metric([[F(2), F(1)], [F(1), F(-1)]]))
    want = _double_loop_mu(c, 7)
    for n in range(3, 8):
        assert list(c.mu(n).terms) == list(want[n].terms), n
        assert c.mu(n) == want[n], n


# ---------------------------------------------------------------------------
# Equation of state and cold limit
# ---------------------------------------------------------------------------


def test_equation_of_state_level_family():
    c = BurbyClosure(2)
    nu = [0.3, 1.1]
    mu_obs = [c.mu_value(1, nu), c.mu_value(2, nu)]
    closed = equation_of_state(c, mu_obs)
    for j, val in enumerate(closed, start=c.nu_count + 1):
        assert abs(val - c.mu_value(j, nu)) < 1e-12


def test_equation_of_state_multidelta_newton():
    c = MultiDeltaClosure(2)
    nu = [0.4, 0.9]
    mu_obs = [c.mu_value(1, nu), c.mu_value(2, nu)]
    closed = equation_of_state(c, mu_obs, guess=[0.5, 1.0])
    for j, val in enumerate(closed, start=3):
        assert abs(val - c.mu_value(j, nu)) < 1e-10


@pytest.mark.parametrize("make, mu_obs", [
    (lambda: BurbyClosure(3), [0.1, 0.2, 0.3]),
    (lambda: MultiDeltaClosure(3), [0.07, 0.107, 0.0247, 0.02387]),
    (lambda: WaterbagClosure([F(1), F(1), F(-2)]), [-0.0225]),
    (lambda: FourFieldClosure(F(1, 2)), [0.3, 0.5]),
], ids=["burby3", "multidelta3", "waterbag3", "fourfield"])
def test_equation_of_state_compiles_each_polynomial_once(monkeypatch, make, mu_obs):
    # the inversion and the closed moments read the closure's float_eval
    # memo, so a repeated call compiles nothing
    closure = make()
    compiled = []
    original = MultiPoly.compile_float

    def counted(p):
        compiled.append(p)
        return original(p)

    monkeypatch.setattr(MultiPoly, "compile_float", counted)
    first = equation_of_state(closure, mu_obs)
    assert compiled
    compiled.clear()
    assert equation_of_state(closure, mu_obs) == first
    assert not compiled


def test_solve_float_solves_each_right_hand_side_as_alone():
    # one elimination for several right-hand sides, with row swaps; each
    # solution bit for bit that of its right-hand side alone
    rng = random.Random(2)
    for n in range(1, 8):
        A = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        B = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(3)]
        X = _solve_float(A, B)
        assert X == [_solve_float(A, [b])[0] for b in B]
        for x, b in zip(X, B):
            assert max(abs(sum(a * v for a, v in zip(row, x)) - bi)
                       for row, bi in zip(A, b)) < 1e-9
    with pytest.raises(RuntimeError, match="singular"):
        _solve_float([[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0]])


def test_newton_invert_recovers_point():
    c = FourFieldClosure(F(1, 2))
    nu = [0.8, -0.3]
    target = [c.mu_value(1, nu), c.mu_value(2, nu)]
    sol = newton_invert(c, target, guess=[0.7, -0.2])
    assert max(abs(s - w) for s, w in zip(sol, nu)) < 1e-12


def test_newton_default_start_first_then_sign_flips():
    ramp = [(1 / 3) * 2.0, 2.0, (5 / 3) * 2.0]
    assert _newton_starts(2.0, 3) == [[2.0, 2.0, 2.0], [2.0, -2.0, 2.0],
                                      [-2.0, 2.0, -2.0], [-2.0, -2.0, -2.0],
                                      ramp, [-r for r in ramp]]
    # with one variable the ramp is the first start again
    assert _newton_starts(0.5, 1) == [[0.5], [-0.5]]


def test_newton_invert_retries_sign_flipped_starts():
    # from (1, 1) the Jacobian of (xi eta, xi eta^2) is singular at once
    c = MultiDeltaClosure(2)
    sol = newton_invert(c, [-1.0, 1.0])
    assert max(abs(s - w) for s, w in zip(sol, [1.0, -1.0])) < 1e-12
    closed = equation_of_state(c, [-1.0, 1.0])
    assert max(abs(v - c.mu_value(j, [1.0, -1.0]))
               for j, v in enumerate(closed, start=3)) < 1e-12
    with pytest.raises(RuntimeError, match="singular Jacobian"):
        newton_invert(c, [-1.0, 1.0], guess=[1.0, 1.0])  # a guess is not retried
    with pytest.raises(RuntimeError, match="did not converge"):
        newton_invert(c, [0.0, 1.0])  # no solution: the first start's error


def test_cold_closure():
    c = ColdClosure()
    assert c.nu_count == 0
    for n in range(1, 5):
        assert c.mu(n).is_zero
    assert c.mu(0).constant_term() == 1


@pytest.mark.parametrize("make", [ColdClosure, lambda: MultiDeltaClosure(1),
                                  lambda: WaterbagClosure([F(1), F(-1)])],
                         ids=["cold", "multidelta-M1", "waterbag-N2"])
def test_equation_of_state_without_normal_variables(make):
    # no moment is observed and the one closed moment is mu_1 = 0; the
    # Newton start used to take max() of an empty residual
    c = make()
    assert newton_invert(c, []) == ()
    assert equation_of_state(c, []) == (0,)
    with pytest.raises(ValueError, match="expected 0 moment values"):
        equation_of_state(c, [1.0])


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric([[F(1), F(0)]])              # not square
    with pytest.raises(ValueError):
        Metric([[F(0), F(1)], [F(2), F(0)]])  # not symmetric
    with pytest.raises(ValueError):
        _ = Metric([[F(0), F(0)], [F(0), F(1)]]).signature  # degenerate
