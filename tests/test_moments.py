"""Moment hierarchy conversions between raw, centered, and reduced forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroclosures.moments import DensityError, p_from_mu
from hydroclosures.poly import MultiPoly

from oracles import gamma_n, poly_vars, s_from_mu

F = Fraction


def stream_moments(a, v, psi, nmax):
    """(P, mu, S) of the multi-stream distribution f = sum_k a_k delta(v - v_k),
    each summed directly over the streams: P_n = sum a_k v_k^n and, with
    rho = P_0 and u = P_1/rho, mu_n = rho^-(n+1) sum a_k (v_k - psi)^n and
    S_n = rho^-(n+1) sum a_k (v_k - u)^n."""
    rho = sum(a)
    u = sum(ak * vk for ak, vk in zip(a, v)) / rho

    def centered(c, n):
        return sum(ak * (vk - c) ** n for ak, vk in zip(a, v)) / rho ** (n + 1)

    P = tuple(sum(ak * vk ** n for ak, vk in zip(a, v)) for n in range(nmax + 1))
    mu = tuple(centered(psi, n) for n in range(1, nmax + 1))
    S = tuple(centered(u, n) for n in range(2, nmax + 1))
    return P, mu, S


def test_s_from_mu_consistency():
    # S_n re-centered from the mu_n equals S_n summed over the streams
    a, v = [F(1), F(2), F(1, 2)], [F(-1), F(1, 3), F(2)]
    P, mu, S = stream_moments(a, v, F(1, 2), 5)
    assert s_from_mu(mu) == S


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
                          st.fractions(min_value=-9, max_value=9, max_denominator=9)),
                min_size=1, max_size=5),
       st.fractions(min_value=-9, max_value=9, max_denominator=9),
       st.integers(1, 6))
def test_conversions_match_direct_stream_sums(streams, psi, nmax):
    # any psi: mu_1 = (u - psi)/rho, so psi = u - rho mu_1 holds by construction
    a, v = [s[0] for s in streams], [s[1] for s in streams]
    P, mu, S = stream_moments(a, v, psi, nmax)
    assert p_from_mu(P[0], psi, mu) == P
    assert s_from_mu(mu) == S


def test_nonpositive_density_rejected():
    with pytest.raises(DensityError):
        p_from_mu(F(0), F(0), [F(1)])
    with pytest.raises(DensityError):
        p_from_mu(F(-1), F(1), [F(1), F(1)])


def test_gamma_of_homogeneous_is_zero():
    x, y = poly_vars(2)
    mu3 = x * y ** 3 + x ** 2 * y ** 2  # homogeneous of degree 4 = n+1
    assert gamma_n(mu3, 3).is_zero


def test_gamma_measures_inhomogeneity():
    x, y = poly_vars(2)
    p = x ** 3 + MultiPoly.const(2, 5)  # degree-3 part drops, constant survives
    g = gamma_n(p, 2)
    assert g == MultiPoly.const(2, 15)
