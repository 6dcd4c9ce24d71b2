"""Hydrodynamic bracket antisymmetry, flatness, signatures and Casimirs."""

from fractions import Fraction

import pytest

from hydroclosures.bracket import (HydroBracket, casimirs, check_flatness,
                                   full_metric, signature)
from hydroclosures.closures import (BurbyClosure, FourFieldClosure,
                                    GenericClosure, Metric, MultiDeltaClosure,
                                    WaterbagClosure)
from hydroclosures.moments import alpha_beta_in_mu
from hydroclosures.poly import MultiPoly, poly_vars
from hydroclosures.ratmat import as_matrix

F = Fraction


def test_mu_bracket_antisymmetric_for_families():
    for c in (MultiDeltaClosure(2), WaterbagClosure([F(1), F(1), F(-2)]),
              BurbyClosure(3), FourFieldClosure(F(1, 2))):
        assert alpha_beta_in_mu(c).is_antisymmetric


def test_antisymmetry_negative_control():
    # verify's "bracket antisymmetry" check must be able to fail: one
    # perturbed beta entry breaks d(alpha_nm)/dnu_k = beta_nmk + beta_mnk,
    # one perturbed alpha entry breaks the symmetry of alpha
    hb = alpha_beta_in_mu(BurbyClosure(3))
    assert hb.is_antisymmetric
    one = MultiPoly.const(hb.nfields, 1)
    n, m, k = 0, 2, 1
    beta = [[list(cell) for cell in row] for row in hb.beta]
    beta[n][m][k] = beta[n][m][k] + one
    bad = HydroBracket(hb.nfields, hb.alpha, beta)
    assert not bad.is_antisymmetric
    assert (n, m, k) in [r[:3] for r in bad.antisymmetry_residuals()]
    alpha = [list(row) for row in hb.alpha]
    alpha[0][1] = alpha[0][1] + one
    assert HydroBracket(hb.nfields, alpha, hb.beta).symmetry_residuals()


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


def test_signature_helper():
    assert signature([[F(0), F(1)], [F(1), F(0)]]) == (1, 1)
    assert signature(MultiDeltaClosure(3).metric) == (2, 2)
    with pytest.raises(ValueError):
        signature([[F(0)]])


def test_full_metric_block_structure():
    c = BurbyClosure(2)
    g = full_metric(c)
    expect = as_matrix([[F(0), F(1), F(0), F(0)],
                        [F(1), F(0), F(0), F(0)],
                        [F(0), F(0), F(0), F(1)],
                        [F(0), F(0), F(1), F(0)]])
    assert g == expect
    assert signature(list(map(list, g))) == (2, 2)


def test_casimir_set():
    c = BurbyClosure(3)
    cas = casimirs(c)
    assert len(cas) == c.N
    kinds = [d.kind for d in cas.densities]
    assert kinds == ["mass", "psi", "rho_nu", "rho_nu", "rho_nu"]
    assert cas.densities[0].description == "rho"
    assert "u - (rho/2)" in cas.densities[1].description
    assert cas.densities[2].description == "rho*nu1"
