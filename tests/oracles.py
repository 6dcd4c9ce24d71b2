"""Reference formulas that only the tests read.

Each states a quantity directly, independently of the way the library
derives it: the inhomogeneity measure gamma_n, the published four-field
polynomials, the S_n re-centering sum, the full bracket metric, and the
multi-stream invariants. Test modules import them with
`from oracles import ...` (pytest puts this directory on `sys.path`).
"""

from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from hydroclosures import ratmat
from hydroclosures.poly import MultiPoly
from hydroclosures.sim import poisson_solve


def poly_vars(nvars: int) -> list[MultiPoly]:
    """The list [x_0, ..., x_{nvars-1}] as polynomials."""
    return [MultiPoly.variable(nvars, i) for i in range(nvars)]


def gamma_n(mu_poly: MultiPoly, n: int) -> MultiPoly:
    """gamma_n = (n+1) mu_n - nu_k dmu_n/dnu_k; zero iff mu_n is homogeneous
    of degree n+1."""
    return (n + 1) * mu_poly - mu_poly.euler()


def s_from_mu(mu: Sequence) -> tuple:
    """Re-centering from psi to u: S_n = sum_k C(n,k) (-mu_1)^(n-k) mu_k
    for n = 2..len(mu), from mu = (mu_1, mu_2, ...) (mu_0 = 1)."""
    mu_full = [1, *mu]
    mu1 = mu_full[1]
    out = []
    for n in range(2, len(mu_full)):
        out.append(sum(comb(n, k) * (-mu1) ** (n - k) * mu_full[k]
                       for k in range(n + 1)))
    return tuple(out)


def fourfield_family(kappa) -> dict:
    """The published four-field polynomials in (Gamma_2, Gamma_3):
    {'mu': [mu_1..mu_5], 'S': [S_2..S_5]}, exact for rational kappa."""
    k = Fraction(kappa)
    names = ("Gamma2", "Gamma3")
    g2, g3 = poly_vars(2)
    mu = [
        g2 * g3,
        g2 ** 3 + k * g2 * g3 ** 2,
        k * g2 * g3 * (3 * g2 ** 2 + k * g3 ** 2),
        k * (Fraction(9, 5) * g2 ** 5 + 6 * k * g2 ** 3 * g3 ** 2
             + k ** 2 * g2 * g3 ** 4),
        k ** 2 * g2 * g3 * (9 * g2 ** 4 + 10 * k * g2 ** 2 * g3 ** 2
                            + k ** 2 * g3 ** 4),
    ]
    km = k - g2  # the combination (kappa - Gamma_2) recurs in every S_n
    S = [
        g2 ** 3 + g2 * km * g3 ** 2,
        g2 * g3 * km * (3 * g2 ** 2 + (km - g2) * g3 ** 2),
        Fraction(9, 5) * k * g2 ** 5 + 6 * g2 ** 3 * km ** 2 * g3 ** 2
        + g2 * km * (k ** 2 - 3 * g2 * km) * g3 ** 4,
        9 * k * g2 ** 5 * km * g3 + 10 * g2 ** 3 * km ** 3 * g3 ** 3
        + g2 * km * (km - g2) * (k ** 2 - 2 * k * g2 + 2 * g2 ** 2) * g3 ** 5,
    ]
    return {"mu": mu, "S": S, "names": names}


def full_metric(closure):
    """Metric of the full partially-decoupled bracket: the canonical
    (rho, u) block [[0,1],[1,0]] plus the microscopic metric."""
    pad = [0] * closure.nu_count
    return ratmat.as_matrix([[0, 1, *pad], [1, 0, *pad],
                             *([0, 0, *row] for row in closure.metric.g)])


def stream_diagnostics(state, grid):
    """(H, mass, momentum) of the multi-stream model."""
    rho = np.sum(state.a, axis=0)
    E = poisson_solve(rho, state.n0, grid)
    H = 0.5 * grid.integral(np.sum(state.a * state.v ** 2, axis=0) + E ** 2)
    return H, grid.integral(rho), grid.integral(np.sum(state.a * state.v, axis=0))
