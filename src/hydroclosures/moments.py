"""Moment conversion and the bracket entries.

The raw fluid moments P_n follow from the moments mu_n centered around
psi = u - rho*mu_1 by a binomial re-centering sum. The formula is
written over generic scalars, so one implementation serves exact
Fractions, MultiPoly values and floats or numpy arrays alike.

Also houses the formulas of the microscopic bracket coefficients
(alpha, beta) in the mu-variables, read from what a closure derives
from its mu_n (`closures.MomentAlgebra`), and the bracket they
assemble. A term with a zero factor is never multiplied out, and a
gamma term is not even looked up when its gamma factor is zero. For a
homogeneous closure (multi-delta, Burby, the four-field family,
homogeneous cubics: gamma_n = 0 for every n) the entries are then those
of the Benney moment chain,

  alpha_nm = (n+m) mu_{n+m-1},   beta_nmk = n d_k mu_{n+m-1}

(Kupershmidt & Manin, Funct. Anal. Appl. 11, 1977; Gibbons & Tsarev,
Phys. Lett. A 211, 1996).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .poly import MultiPoly


class DensityError(ValueError):
    """Raised when a nonpositive density reaches a formula that divides by it."""


def require_positive_density(rho) -> None:
    """Raise DensityError unless rho, a scalar or a numpy array, is
    positive everywhere."""
    bad = rho <= 0
    if bad.any() if hasattr(bad, "any") else bad:
        raise DensityError("density must be positive")


def p_from_mu(rho, psi, mu: Sequence) -> tuple:
    """Raw moments P_n = sum_k C(n,k) mu_k rho^(k+1) psi^(n-k) for
    n = 0..len(mu), from mu = (mu_1, mu_2, ...) (mu_0 = 1) and a positive
    density rho (a number or numpy array)."""
    require_positive_density(rho)
    mu_full = [1, *mu]
    P = []
    for n in range(len(mu_full)):
        P.append(sum(comb(n, k) * mu_full[k] * rho ** (k + 1) * psi ** (n - k)
                     for k in range(n + 1)))
    return tuple(P)


def _product(c: int, p: MultiPoly, q: MultiPoly | None = None) -> MultiPoly:
    """c p q (c p without q), multiplied out left to right; a zero factor
    is itself the product, and then nothing is multiplied."""
    for f in (p, q):
        if f is not None and f.is_zero:
            return f
    return c * p if q is None else c * p * q


def mu_alpha_entry(closure, n: int, m: int) -> MultiPoly:
    """alpha_nm = (n+m) mu_{n+m-1} - m mu_{m-1} gamma_n - n mu_{n-1} gamma_m,
    as a polynomial in the closure's normal variables; a gamma term with
    gamma = 0 is skipped."""
    out = _product(n + m, closure.mu(n + m - 1))
    if not closure.gamma(n).is_zero:
        out = out - _product(m, closure.mu(m - 1), closure.gamma(n))
    if not closure.gamma(m).is_zero:
        out = out - _product(n, closure.mu(n - 1), closure.gamma(m))
    return out


def mu_beta_entry(closure, n: int, m: int, k: int) -> MultiPoly:
    """Coefficient of d_x nu_k in
    beta_nm = n d_x mu_{n+m-1} - n gamma_m d_x mu_{n-1} - m mu_{m-1} d_x gamma_n.

    The derivative-index convention (n multiplies d_x mu_{n+m-1}) follows the
    form the raw-moment bracket takes; the chain rule turns each d_x mu into
    sum_k (dmu/dnu_k) d_x nu_k, read from the closure's memoized gradients.
    As in `mu_alpha_entry`, a gamma term with a zero gamma factor (gamma_m
    or d_k gamma_n) is skipped, and a zero gamma_n is not differentiated.
    """
    out = _product(n, closure.grad(n + m - 1)[k])
    if not closure.gamma(m).is_zero:
        out = out - _product(n, closure.gamma(m), closure.grad(n - 1)[k])
    if not closure.gamma(n).is_zero:
        d_gamma = closure.gamma_grad(n)[k]
        if not d_gamma.is_zero:
            out = out - _product(m, closure.mu(m - 1), d_gamma)
    return out


@dataclass(frozen=True)
class HydroBracket:
    """Coefficients (alpha, beta) of a hydrodynamic bracket.

    alpha[n][m] and beta[n][m][k] are polynomials in `nfields` variables;
    beta[n][m][k] multiplies the x-derivative of variable k.
    """

    nfields: int
    alpha: list
    beta: list


def alpha_beta_in_mu(closure) -> HydroBracket:
    """The microscopic hydrodynamic bracket of a closure in mu-variables,
    with every entry expressed as a polynomial in the normal variables."""
    size = closure.nu_count
    alpha = [[mu_alpha_entry(closure, n, m) for m in range(1, size + 1)]
             for n in range(1, size + 1)]
    beta = [[[mu_beta_entry(closure, n, m, k) for k in range(size)]
             for m in range(1, size + 1)]
            for n in range(1, size + 1)]
    return HydroBracket(nfields=size, alpha=alpha, beta=beta)
