"""The waterbag power-sum certificate against the full verify checks.

`verify` certifies a waterbag closure from its heights, metric, mu_1 and
mu_2 and N-free formal identity checks, the flatness cells among them by
`check_flatness` over the formal ring; when any of that fails it runs the
full flatness and identity checks. These tests hold the certificate to
the full checks: the same report on valid heights, a decline and the
same failures on perturbed closures, and a formal step that does fail
without the relation q_1 = 1/2.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroclosures import bracket, certificate
from hydroclosures.certificate import PowerSums, certify_waterbag, formal_residuals
from hydroclosures.cli import Report, _verify_one
from hydroclosures.closures import Metric, WaterbagClosure

from oracles import waterbag_mu_loop

F = Fraction


def report(closure, certify=True):
    """The checks `verify` reports on `closure`; with certify=False the
    certificate declines, so they come from the full checks."""
    rep = Report("verify")
    if certify:
        _verify_one(closure, rep)
    else:
        with (mock.patch.object(certificate, "certify_waterbag", return_value=False),
              mock.patch.object(bracket, "check_flatness",
                                wraps=bracket.check_flatness) as full):
            _verify_one(closure, rep)
        assert full.call_count == 1
    return rep.checks


@st.composite
def valid_heights(draw):
    """N = 3..7 heights summing to zero with no vanishing partial sum."""
    n = draw(st.integers(3, 7))
    value = st.sampled_from([F(-3), F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2), F(3)])
    head = draw(st.lists(value, min_size=n - 1, max_size=n - 1).filter(
        lambda a: all(sum(a[:k]) for k in range(1, len(a) + 1))))
    return head + [-sum(head)]


@settings(max_examples=20, deadline=None)
@given(valid_heights())
def test_certificate_agrees_with_the_full_checks(heights):
    certified, full = (report(WaterbagClosure(heights), certify)
                       for certify in (True, False))
    assert certify_waterbag(WaterbagClosure(heights))
    assert certified == full
    assert all(c["ok"] for c in full)


def test_identities_alone_take_the_certificate():
    # a waterbag closure proves its own gamma_n check, whoever asks for its
    # identities: they pass without expanding any mu_n past mu_2
    closure = WaterbagClosure([F(1), F(1), F(1), F(-1), F(-2)])
    assert all(ok for _, ok, _ in closure.identities())
    assert max(closure._memo["mu"]) <= 2


class PerturbedMu2(WaterbagClosure):
    """mu_2 of heights with one entry changed, under the true metric."""

    def __init__(self, heights):
        super().__init__(heights)
        other = list(heights)
        other[0] += 1
        other[-1] -= 1
        self._mu2 = waterbag_mu_loop(other, 2)


class PerturbedMetric(WaterbagClosure):
    """The true mu_2 under a metric with one changed entry."""

    def __init__(self, heights):
        super().__init__(heights)
        rows = [list(row) for row in self.metric.g]
        rows[0][0] += 1
        self.metric = Metric(rows)


@pytest.mark.parametrize("cls", [PerturbedMu2, PerturbedMetric])
@pytest.mark.parametrize("heights", ["1,1,-2", "1,1,1,-1,-2", "1,-3,3,1,-1,-1"])
def test_certificate_declines_a_perturbed_closure(cls, heights):
    heights = [F(h) for h in heights.split(",")]
    assert not certify_waterbag(cls(heights))
    checks = report(cls(heights))
    assert checks == report(cls(heights), certify=False)
    assert not all(c["ok"] for c in checks)


class FreeQ1(PowerSums):
    """The formal ring without the relation q_1 = 1/2 (mu_0 = 1): q_1 and
    D_1 are free variables."""

    def q(self, j):
        return self._variable(1) if j == 1 else super().q(j)

    def D(self, j):
        return self._variable(self.J + 1) if j == 1 else super().D(j)


def failing(alg, N):
    """The formal identities that `alg` does not reduce to zero at N: the
    recurrence and gamma_n residuals, then the flatness cells."""
    nv = N - 2
    top = 2 * nv + 1
    ring = alg(top + 1)
    return ([name for name, r in formal_residuals(ring, top) if not r.is_zero]
            + [c.name for c in bracket.check_flatness(ring, nv).failures()])


@pytest.mark.parametrize("N", [3, 6])
def test_formal_step_needs_q1(N):
    assert failing(PowerSums, N) == []
    rejected = failing(FreeQ1, N)
    assert {"gamma_1", "alpha[1,1]", "beta[1,1;1]"} <= set(rejected)
