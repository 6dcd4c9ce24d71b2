"""Hydrodynamic bracket antisymmetry (by the oracle), flatness, signatures
and Casimirs."""

import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hydroclosures import bracket, certificate, moments
from hydroclosures.bracket import FlatnessCheck, FlatnessReport, casimirs, check_flatness
from hydroclosures.cli import Report, _verify_one
from hydroclosures.closures import (BurbyClosure, FourFieldClosure,
                                    GenericClosure, Metric, MultiDeltaClosure,
                                    WaterbagClosure)
from hydroclosures.moments import HydroBracket, alpha_beta_in_mu
from hydroclosures.poly import MultiPoly
from hydroclosures.ratmat import as_matrix

from oracles import (antisymmetry_residuals, full_metric, inverse_dense, is_antisymmetric,
                     linear_substitution, poly_vars, symmetry_residuals)

F = Fraction
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_mu_bracket_antisymmetric_for_families():
    for c in (MultiDeltaClosure(2), WaterbagClosure([F(1), F(1), F(-2)]),
              BurbyClosure(3), FourFieldClosure(F(1, 2))):
        assert is_antisymmetric(alpha_beta_in_mu(c))
    # summing beta_nmk and beta_mnk gives d(alpha_nm)/dnu_k for any mu_n:
    # closures that fail flatness keep an antisymmetric bracket
    for mu2, metric in (("nu1^3 + nu2^3", [[0, 1], [1, 0]]), ("nu1^2*nu2", [[1, 0], [0, 1]])):
        c = GenericClosure(MultiPoly.parse(mu2), Metric(metric))
        assert not check_flatness(c).ok
        assert is_antisymmetric(alpha_beta_in_mu(c))


def test_antisymmetry_negative_control():
    # the oracle's antisymmetry check must be able to fail: one perturbed
    # beta entry breaks d(alpha_nm)/dnu_k = beta_nmk + beta_mnk, one
    # perturbed alpha entry breaks the symmetry of alpha
    hb = alpha_beta_in_mu(BurbyClosure(3))
    assert is_antisymmetric(hb)
    one = MultiPoly.const(hb.nfields, 1)
    n, m, k = 0, 2, 1
    beta = [[list(cell) for cell in row] for row in hb.beta]
    beta[n][m][k] = beta[n][m][k] + one
    bad = HydroBracket(hb.nfields, hb.alpha, beta)
    assert not is_antisymmetric(bad)
    assert (n, m, k) in [r[:3] for r in antisymmetry_residuals(bad)]
    alpha = [list(row) for row in hb.alpha]
    alpha[0][1] = alpha[0][1] + one
    assert symmetry_residuals(HydroBracket(hb.nfields, alpha, hb.beta))


def test_flatness_all_families():
    cases = [MultiDeltaClosure(2), MultiDeltaClosure(3),
             WaterbagClosure([F(1), F(1), F(-2)]),
             WaterbagClosure([F(2), F(-1), F(1), F(-2)]),
             BurbyClosure(4), BurbyClosure(3, branch="minus"),
             FourFieldClosure(F(1, 2)), FourFieldClosure(F(0))]
    for c in cases:
        report = check_flatness(c)
        assert report.ok, (c.name, [f.name for f in report.failures()])


def test_flatness_negative_control_mismatched_metric():
    # a cubic that is not generated by this metric: consistent at the
    # cells the recurrence enforces, inconsistent one row further out
    mu2 = MultiPoly.parse("nu1^2*nu2", varnames=["nu1", "nu2"])
    bad = GenericClosure(mu2, Metric([[F(1), F(0)], [F(0), F(1)]]))
    assert check_flatness(bad, size=bad.nu_count).ok  # enforced cells only
    report = check_flatness(bad, size=bad.nu_count + 1)
    assert not report.ok
    assert any(f.name.startswith("beta") and f.residual for f in report.failures())


def test_flatness_negative_control_perturbed_family():
    c = MultiDeltaClosure(2)
    xi, eta = poly_vars(2)
    bad = GenericClosure(c.mu(2) + xi ** 2 * eta, c.metric)
    assert not check_flatness(bad, size=bad.nu_count + 1).ok


def test_matched_generic_stays_flat_at_larger_size():
    c = FourFieldClosure(F(1, 3))
    gen = GenericClosure(c.mu(2), c.metric)
    assert check_flatness(gen, size=gen.nu_count + 2).ok


# -- the uncached flatness check, kept as the reference --------------------


def reference_check_flatness(closure, size=None):
    """check_flatness as it stood before the gradient, Hessian-row and
    bracket-entry caches: every derivative, gamma_n and bracket entry is
    rebuilt where it is read."""
    if size is None:
        size = closure.nu_count
    nv = closure.nu_count
    g = closure.metric.g
    xs = poly_vars(nv)

    def gamma(n):
        p = closure.mu(n)
        return (n + 1) * p - sum((x * p.diff(k) for k, x in enumerate(xs)),
                                 MultiPoly.zero(nv))

    def alpha_entry(n, m):
        mu = closure.mu
        return ((n + m) * mu(n + m - 1) - m * mu(m - 1) * gamma(n)
                - n * mu(n - 1) * gamma(m))

    def beta_entry(n, m, k):
        mu = closure.mu
        return (n * mu(n + m - 1).diff(k) - n * gamma(m) * mu(n - 1).diff(k)
                - m * mu(m - 1) * gamma(n).diff(k))

    def grad(n):
        p = closure.mu(n)
        return [p.diff(k) for k in range(nv)]

    def pair(gn, gm):
        acc = MultiPoly.zero(nv)
        for i in range(nv):
            for j in range(nv):
                if g[i][j]:
                    acc = acc + gn[i] * g[i][j] * gm[j]
        return acc

    checks = []
    for n in range(1, size + 1):
        for m in range(n, size + 1):
            res_a = pair(grad(n), grad(m)) - alpha_entry(n, m)
            checks.append(FlatnessCheck(
                name=f"alpha[{n},{m}]", ok=res_a.is_zero,
                residual="" if res_a.is_zero else res_a.to_text(closure.nu_names)))
            for first, second in ((n, m),) if n == m else ((n, m), (m, n)):
                for k in range(nv):
                    dgf = [p.diff(k) for p in grad(first)]
                    res_b = pair(dgf, grad(second)) - beta_entry(first, second, k)
                    checks.append(FlatnessCheck(
                        name=f"beta[{first},{second};{k + 1}]", ok=res_b.is_zero,
                        residual="" if res_b.is_zero else res_b.to_text(closure.nu_names)))
    return FlatnessReport(checks=checks)


def _generic(mu2_text, rows=None):
    mu2 = MultiPoly.parse(mu2_text)
    nv = mu2.nvars
    if rows is None:  # the CLI default, antidiagonal ones
        rows = [[F(int(i + j == nv - 1)) for j in range(nv)] for i in range(nv)]
    return GenericClosure(mu2, Metric(rows))


def _perturbed_multidelta():
    c = MultiDeltaClosure(2)
    xi, eta = poly_vars(2)
    return GenericClosure(c.mu(2) + xi ** 2 * eta, c.metric)


def _fourfield_as_generic():
    c = FourFieldClosure(F(1, 3))
    return GenericClosure(c.mu(2), c.metric)


# name -> (closure builder, sizes as offsets from nu_count); the verify
# size is nu_count for a family and nu_count + 2 for a generic closure
ORACLE_CASES = {
    **{f"burby{m}": (lambda m=m: BurbyClosure(m), (0,)) for m in range(1, 7)},
    "burby3-minus": (lambda: BurbyClosure(3, branch="minus"), (0,)),
    "multidelta2": (lambda: MultiDeltaClosure(2), (0,)),
    "multidelta3": (lambda: MultiDeltaClosure(3), (0,)),
    "waterbag3": (lambda: WaterbagClosure([F(1), F(1), F(-2)]), (0,)),
    "waterbag4": (lambda: WaterbagClosure([F(2), F(-1), F(1), F(-2)]), (0,)),
    "waterbag5": (lambda: WaterbagClosure([F(1), F(1), F(1), F(-1), F(-2)]), (0,)),
    "fourfield": (lambda: FourFieldClosure(F(1, 2)), (0,)),
    "generic": (lambda: _generic("nu1*nu3^2 + nu2^2*nu3"), (2,)),
    # the negative controls of this file, which fail with residual text
    # one size beyond the enforced cells
    "generic-mismatched-metric": (
        lambda: _generic("nu1^2*nu2", [[F(1), F(0)], [F(0), F(1)]]), (0, 1, 2)),
    "multidelta2-perturbed": (_perturbed_multidelta, (0, 1, 2)),
    "fourfield-generic": (_fourfield_as_generic, (2,)),
}
NEGATIVE_CONTROLS = ("generic-mismatched-metric", "multidelta2-perturbed")


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_flatness_matches_uncached_reference(case):
    build, offsets = ORACLE_CASES[case]
    for offset in offsets:
        size = build().nu_count + offset
        want = reference_check_flatness(build(), size)
        got = check_flatness(build(), size)
        assert [(c.name, c.ok, c.residual) for c in got.checks] == \
            [(c.name, c.ok, c.residual) for c in want.checks], (case, size)
    assert got.ok == (case not in NEGATIVE_CONTROLS)


def traced(fn):
    """The tracer summary of one call of fn()."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.summary()


def test_verify_builds_each_derivative_and_entry_once():
    """Counters of the full checks (flatness, the oracle's antisymmetry,
    identities) on waterbag N = 5 (nv = 3), recorded when the gradient
    and Hessian-row caches went in. `verify` itself certifies a waterbag
    closure and builds no bracket, so the certificate is switched off and
    the checks run directly, through the names the tracer patches. The
    entries were 15 + 36, and the diffs 21 + 6 + 18 + 27, while the cells
    the recurrence proves were computed and each Hessian built both orders
    of every mixed partial; they are 4 + 36 and 21 + 6 + 6 + 27 since
    neither is."""
    closure = WaterbagClosure([F(1), F(1), F(1), F(-1), F(-2)])

    def full_checks():
        assert bracket.check_flatness(closure).ok
        assert is_antisymmetric(moments.alpha_beta_in_mu(closure))
        assert all(ok for _, ok, _ in closure.identities())

    with mock.patch.object(certificate, "certify_waterbag", return_value=False):
        summary = traced(full_checks)
    # the S_n check reads the nu = 0 velocities, never the expansion
    assert "closures.waterbag_s" not in summary["calls"]
    counts = summary["counts"]
    # 3 alpha and 2 * 3 beta cells per pair n < m, 1 + 3 per n = m
    assert counts["bracket.identities"] == 3 * 7 + 3 * 4
    # the entries of the cells check_flatness computes, alpha[3,3] and
    # beta[2,3;k] (the recurrence proves the rows n = 1 and alpha n = 2),
    # then every alpha_nm and beta_nmk of the 3 x 3 bracket, each once
    assert counts["moments.entries"] == 4 + 36
    # gradients of mu_0..mu_6 (7 * 3) and of gamma_2..gamma_3 (2 * 3; the
    # zero gamma_1 is not differentiated), the Hessian of mu_2 (6, one per
    # unordered pair (i, k), for the beta pair (2, 3); the cells with n >= m
    # follow from the product-rule lemma, so no alpha side is
    # differentiated), and the 27 d(alpha_nm)/dnu_k of the antisymmetry
    # check
    assert summary["calls"]["poly.diff"] == 21 + 6 + 6 + 27


@pytest.mark.parametrize("heights", ["1,1,1,-1,-2", "1,1,1,1,1,-1,-1,-1,-1,-1"],
                         ids=["N5", "N10"])
def test_verify_certifies_waterbag_without_expanding_mu(heights):
    # the power-sum certificate runs check_flatness once, over its formal
    # ring, no bracket is built, and no mu_n past mu_2 is expanded
    closure = WaterbagClosure([F(h) for h in heights.split(",")])
    nv = closure.nu_count
    rep = Report("verify")
    summary = traced(lambda: _verify_one(closure, rep))
    assert rep.ok
    assert summary["calls"]["bracket.flatness"] == 1
    # one representative k: 3 cells per pair n < m, 2 per n = m
    assert summary["counts"]["bracket.identities"] == 3 * nv * (nv - 1) // 2 + 2 * nv
    assert "moments.alpha_beta" not in summary["calls"]
    assert max(memo_args(closure, "mu")) <= 2


def memo_args(obj, method: str) -> list:
    """The arguments at which obj's memoized `method` has run."""
    return list(obj._memo[method])


@st.composite
def random_cubics(draw):
    """A GenericClosure of a cubic with 1..4 random monomials in nv = 2..4
    variables, under an identity, antidiagonal or random diagonal metric."""
    nv = draw(st.integers(2, 4))
    monomials = list(combinations_with_replacement(range(nv), 3))
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4,
                           unique=True))
    coef = st.sampled_from([F(-2), F(-1), F(1, 2), F(1), F(2)])
    terms = {}
    for combo in chosen:
        terms[tuple(combo.count(i) for i in range(nv))] = draw(coef)
    kind = draw(st.sampled_from(["identity", "antidiagonal", "diagonal"]))
    rows = [[F(0)] * nv for _ in range(nv)]
    for i in range(nv):
        if kind == "antidiagonal":
            rows[i][nv - 1 - i] = F(1)
        else:
            rows[i][i] = F(1) if kind == "identity" else draw(coef)
    return GenericClosure(MultiPoly(nv, terms), Metric(rows))


# The flat homogeneous binary cubics c0 x^3 + c1 x^2 y + c2 x y^2 + c3 y^3
# under three metrics: the flatness cells cut out one quadric Q(c) times
# the coordinate ideal (a sympy elimination, ROADMAP item 5), so a nonzero
# cubic is flat iff Q = 0. Each entry: metric, Q, and c with Q(c) = 0
# solved from any c (one coefficient that Q is linear in, where it can).
def _solve_antidiagonal(c0, c1, c2, c3):
    if c3:
        return c1 * c2 / (9 * c3), c1, c2, c3
    if c0:
        return c0, c1, c2, c1 * c2 / (9 * c0)
    return c0, c1, 0, c3


def _solve_identity(c0, c1, c2, c3):
    if c2:
        return (c1 * c1 - 3 * c1 * c3 + c2 * c2) / (3 * c2), c1, c2, c3
    return c0, c1, c2, (c1 * c1 + c2 * c2 - 3 * c0 * c2) / (3 * c1) if c1 else c3


def _solve_split(c0, c1, c2, c3):
    if c2:
        return (c1 * c1 + 3 * c1 * c3 - c2 * c2) / (3 * c2), c1, c2, c3
    return c0, c1, c2, (3 * c0 * c2 - c1 * c1 + c2 * c2) / (3 * c1) if c1 else c3


BINARY_CUBIC_QUADRICS = {
    "0,1;1,0": (lambda c0, c1, c2, c3: 9 * c0 * c3 - c1 * c2, _solve_antidiagonal),
    "1,0;0,1": (lambda c0, c1, c2, c3: 3 * c0 * c2 - c1 * c1 + 3 * c1 * c3 - c2 * c2,
                _solve_identity),
    "1,0;0,-1": (lambda c0, c1, c2, c3: 3 * c0 * c2 - c1 * c1 - 3 * c1 * c3 + c2 * c2,
                 _solve_split),
}


@settings(max_examples=180, deadline=None)
@given(st.sampled_from(sorted(BINARY_CUBIC_QUADRICS)),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=4,
                max_size=4),
       st.booleans())
def test_flat_binary_cubics_are_the_quadric(metric, coefs, on_quadric):
    # an oracle independent of the recurrence: half the draws lie on Q = 0
    # and must pass every cell, the others (Q != 0 but for a chance zero)
    # must fail one
    quadric, solve = BINARY_CUBIC_QUADRICS[metric]
    if on_quadric:
        coefs = solve(*coefs)
        assert quadric(*coefs) == 0
    exps = [(3, 0), (2, 1), (1, 2), (0, 3)]
    mu2 = MultiPoly(2, {e: c for e, c in zip(exps, coefs)})
    assume(not mu2.is_zero)
    g = Metric([[F(x) for x in row.split(",")] for row in metric.split(";")])
    assert GenericClosure(mu2, g).flatness().ok == (quadric(*coefs) == 0)


@settings(max_examples=25, deadline=None)
@given(random_cubics())
def test_three_index_flatness_agrees_with_full_check(closure):
    # the cells with n, m <= 3 are conjectured to decide flatness; until
    # that is proved, verify keeps the full check and this test looks for
    # a counterexample
    assert (check_flatness(closure, size=3).ok
            == check_flatness(closure, size=closure.flatness_size).ok)


def _cells(report):
    return [(c.name, c.ok, c.residual) for c in report.checks]


class _Delegate:
    """A closure's attributes through an object that is not a
    `ClosureFamily`: `check_flatness` computes every independent cell of it."""

    def __init__(self, closure):
        self._closure = closure

    def __getattr__(self, name):
        return getattr(self._closure, name)


@settings(max_examples=25, deadline=None)
@given(random_cubics())
def test_implied_cells_match_the_reference(closure):
    # most random cubics are not flat, so this drives the cells whose
    # premise fails, which check_flatness computes instead of implying,
    # and the cells the recurrence proves, which hold flat or not
    for size in (closure.nu_count, closure.nu_count + 1):
        want = _cells(reference_check_flatness(closure, size))
        assert _cells(check_flatness(_Delegate(closure), size)) == want, size
        assert _cells(check_flatness(closure, size)) == want, size
    assert _cells(closure.flatness()) == \
        _cells(reference_check_flatness(closure, closure.flatness_size))


FAMILIES = {
    **{f"burby{m}": (lambda m=m: BurbyClosure(m)) for m in range(1, 9)},
    **{f"burby{m}-minus": (lambda m=m: BurbyClosure(m, branch="minus")) for m in (1, 3, 5, 7)},
    **{f"multidelta{M}": (lambda M=M: MultiDeltaClosure(M)) for M in range(1, 5)},
    **{f"fourfield{k}": (lambda k=k: FourFieldClosure(F(k))) for k in (0, 1, -3)},
    # a generic cubic with every kind of monomial, under a full symmetric
    # metric (no zero entry): not flat, and every gamma_n is nonzero
    "generic-full-metric": lambda: _generic(
        "nu1^3 + 2*nu1*nu2*nu3 - nu2*nu3^2 + nu1*nu2 - 3*nu3 + 1/2",
        [[F(2), F(1), F(-1)], [F(1), F(3), F(1, 2)], [F(-1), F(1, 2), F(-1)]]),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_family_flatness_matches_the_reference(family):
    # `flatness` passes the cells the recurrence proves without computing
    # them; its report is that of computing every cell
    closure = FAMILIES[family]()
    got = closure.flatness()
    assert _cells(got) == _cells(reference_check_flatness(closure, closure.flatness_size))
    assert got.ok == (family != "generic-full-metric")


# The closures of the covariance test, each with whether it is flat: the
# verify-sparse cubic under its antidiagonal metric, and x^2 y under the
# identity, which is not
COVARIANT_FAMILIES = {
    "burby2": (lambda: BurbyClosure(2), True),
    "burby3": (lambda: BurbyClosure(3), True),
    "burby4": (lambda: BurbyClosure(4), True),
    "multidelta2": (lambda: MultiDeltaClosure(2), True),
    "multidelta3": (lambda: MultiDeltaClosure(3), True),
    "fourfield1/2": (lambda: FourFieldClosure(F(1, 2)), True),
    "verify-sparse-cubic": (lambda: _generic("nu1*nu3^2 + nu2^2*nu3"), True),
    "waterbag1,2,-1,-2": (lambda: WaterbagClosure([F(1), F(2), F(-1), F(-2)]), True),
    "waterbag1,1,1,-1,-2": (
        lambda: WaterbagClosure([F(1), F(1), F(1), F(-1), F(-2)]), True),
    "x2y-identity": (lambda: _generic("nu1^2*nu2", [[F(1), F(0)], [F(0), F(1)]]), False),
}


@pytest.mark.parametrize("family", COVARIANT_FAMILIES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_closures_are_gl_covariant(family, data):
    # under nu = T nu' the metric becomes g' = T^-1 g T^-t: mu_1 is
    # invariant, the Euler operator commutes with T and every pairing is a
    # g-contraction, so (mu_2 o T, g') generates mu_n o T, pairs gradients
    # to the pairing o T and Hessian rows to sum_a T_ak (row a o T), and
    # gives every flatness cell the verdict of (mu_2, g)
    make, flat = COVARIANT_FAMILIES[family]
    closure = make()
    nv = closure.nu_count
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    T = data.draw(st.lists(st.lists(entry, min_size=nv, max_size=nv),
                           min_size=nv, max_size=nv))
    try:
        Tinv = inverse_dense(T)
    except ZeroDivisionError:
        assume(False)
    g = closure.metric.g
    g_new = [[sum(Tinv[i][a] * g[a][b] * Tinv[j][b] for a in range(nv) for b in range(nv))
              for j in range(nv)] for i in range(nv)]
    moved = GenericClosure(linear_substitution(closure.mu(2), T), Metric(g_new))
    for n in range(1, 7):
        assert moved.mu(n) == linear_substitution(closure.mu(n), T)
    for n in range(1, nv + 2):
        for m in range(1, nv + 2):
            assert moved.grad_pair(n, m) == linear_substitution(closure.grad_pair(n, m), T)
            rows = [linear_substitution(row, T) for row in closure.hessian_pair(n, m)]
            assert list(moved.hessian_pair(n, m)) == [
                sum((T[a][k] * rows[a] for a in range(nv)), MultiPoly.zero(nv))
                for k in range(nv)]
    cells = [(c.name, c.ok) for c in check_flatness(closure, nv + 1).checks]
    assert [(c.name, c.ok) for c in check_flatness(moved, nv + 1).checks] == cells
    assert all(ok for _, ok in cells) == flat


@pytest.mark.parametrize("family", ["burby4", "multidelta3", "fourfield1",
                                    "generic-full-metric"])
def test_hessian_builds_each_mixed_partial_once(family):
    # an entry below the diagonal is read back from its mirror: `diff` keeps
    # term order, so it is the polynomial, in the term order, that
    # differentiating in the other order gives
    closure = FAMILIES[family]()
    for n in range(1, 5):
        grad = closure.grad(n)
        for i, row in enumerate(closure._hessian(n)):
            for k, entry in enumerate(row):
                want = grad[i].diff(k)
                assert entry == want and list(entry.terms.items()) == list(want.terms.items())


class _OwnMu(BurbyClosure):
    """A Burby closure whose `mu` is its own method, returning the same
    mu_n: `check_flatness` cannot know that the recurrence built them."""

    def mu(self, n):
        return super().mu(n)


def test_only_a_family_with_its_own_mu_skips_the_proven_cells():
    # a family skips the n = 1 row and the alpha row n = 2; an object that
    # is not a ClosureFamily (as the certificate's formal ring is not), or
    # a family that overrides `mu`, has every independent cell computed
    closure = BurbyClosure(4)
    size, nv = closure.flatness_size, closure.nu_count
    cells = size * (size + 1) // 2 + nv * size * size  # alpha n <= m, beta all
    # alpha for n <= m and beta for n < m; without the proven cells, alpha
    # from n = 3 on and beta from n = 2 on: (size - 1)(size - 2)/2 pairs each
    every = size * (size + 1) // 2 + nv * size * (size - 1) // 2
    unproven = (1 + nv) * (size - 1) * (size - 2) // 2
    want = _cells(reference_check_flatness(closure, size))
    # through `bracket.check_flatness`, the name the tracer patches
    for check, entries in ((lambda: bracket.check_flatness(closure), unproven),
                           (closure.flatness, unproven),
                           (lambda: bracket.check_flatness(_Delegate(closure)), every),
                           (lambda: bracket.check_flatness(_OwnMu(4)), every)):
        summary = traced(check)
        assert summary["counts"]["bracket.identities"] == cells
        assert summary["counts"]["moments.entries"] == entries
        assert _cells(check()) == want


class _OffAlphaSide:
    """A flat closure whose (a) side at one pair (n, m) is off by `extra`;
    every (b) side still holds. It records the pairs `hessian_pair` is
    built at."""

    def __init__(self, closure, pair, extra):
        self._closure, self._pair, self._extra = closure, pair, extra
        self.hessian_calls = []

    def __getattr__(self, name):
        return getattr(self._closure, name)

    def grad_pair(self, n, m):
        lhs = self._closure.grad_pair(n, m)
        return lhs + self._extra if (n, m) == self._pair else lhs

    def hessian_pair(self, n, m):
        self.hessian_calls.append((n, m))
        return self._closure.hessian_pair(n, m)


class _OffMirrorSide(_OffAlphaSide):
    """`_OffAlphaSide` whose (b) sides at the mirror pair (m, n) are also
    off, by `mirror_extra[k]` at each k."""

    def __init__(self, closure, pair, extra, mirror_extra):
        super().__init__(closure, pair, extra)
        self._mirror_extra = mirror_extra

    def hessian_pair(self, n, m):
        lhs = super().hessian_pair(n, m)
        if (m, n) != self._pair:
            return lhs
        return tuple(side + off for side, off in zip(lhs, self._mirror_extra))


@pytest.mark.parametrize("pair", [(1, 2), (1, 1)])
def test_implied_cells_need_the_alpha_premise(pair):
    # random cubics rarely if ever fail alpha[n,m] while passing a
    # beta[n,m;k] whose mirror fails (none in 400 draws), so these doubles
    # do: the cells that alpha would imply are computed from their own
    # definition, hessian_pair(m, n), built once. With only the (a) side
    # off they pass; with the mirror (b) sides off too, each fails by
    # exactly its own perturbation
    closure = MultiDeltaClosure(2)
    names = closure.nu_names
    xi, eta = poly_vars(2)
    extra = xi * eta if pair == (1, 2) else xi ** 2 * eta
    n, m = pair
    mirror_extra = (eta, xi ** 2)
    for double, want in (
            (_OffAlphaSide(closure, pair, extra), [(f"alpha[{n},{m}]", extra)]),
            (_OffMirrorSide(closure, pair, extra, mirror_extra),
             [(f"alpha[{n},{m}]", extra),
              *((f"beta[{m},{n};{k + 1}]", off) for k, off in enumerate(mirror_extra))])):
        report = check_flatness(double)
        assert [(c.name, c.residual) for c in report.failures()] == \
            [(name, res.to_text(names)) for name, res in want]
        calls = double.hessian_calls
        assert calls.count((m, n)) == 1 and len(set(calls)) == len(calls)


def _verify_checks(closure):
    rep = Report("verify")
    _verify_one(closure, rep)
    return {c["name"].split(": ", 1)[1]: c["ok"] for c in rep.checks}


@settings(max_examples=25, deadline=None)
@given(random_cubics())
def test_flatness_decides_antisymmetry(closure):
    # the product-rule lemma of docs/waterbag_certificate.md: the entry
    # formulas give d_k alpha_nm = beta_nmk + beta_mnk for any mu_n, flat or
    # not, so verify reports antisymmetry without building the bracket
    assert is_antisymmetric(alpha_beta_in_mu(closure))
    assert _verify_checks(closure)["bracket antisymmetry"]


@pytest.mark.parametrize("closure", [
    BurbyClosure(3), MultiDeltaClosure(3),
    GenericClosure(MultiPoly.parse("nu1^3 + nu2^3"), Metric([[0, 1], [1, 0]]))],
    ids=["burby3", "multidelta3", "not-flat"])
def test_verify_builds_no_bracket_when_flat(closure):
    # nor when not flat: antisymmetry holds by the lemma either way
    summary = traced(lambda: _verify_checks(closure))
    assert summary["calls"]["bracket.flatness"] == 1
    assert "moments.alpha_beta" not in summary["calls"]


def test_signature_helper():
    assert Metric([[F(0), F(1)], [F(1), F(0)]]).signature == (1, 1)
    assert MultiDeltaClosure(3).metric.signature == (2, 2)
    with pytest.raises(ValueError):
        _ = Metric([[F(0)]]).signature


def test_full_metric_block_structure():
    c = BurbyClosure(2)
    g = full_metric(c)
    expect = as_matrix([[F(0), F(1), F(0), F(0)],
                        [F(1), F(0), F(0), F(0)],
                        [F(0), F(0), F(0), F(1)],
                        [F(0), F(0), F(1), F(0)]])
    assert g == expect
    assert Metric(g).signature == (2, 2)


def test_casimir_set():
    c = BurbyClosure(3)
    cas = casimirs(c)
    assert len(cas) == c.N
    kinds = [d.kind for d in cas]
    assert kinds == ["mass", "psi", "rho_nu", "rho_nu", "rho_nu"]
    assert cas[0].description == "rho"
    assert "u - (rho/2)" in cas[1].description
    assert cas[2].description == "rho*nu1"
