"""The mu_n recurrence against an independent sympy oracle.

`sympy_moments` writes the recurrence of `ClosureFamily` out again in
sympy, from a closure's mu_2 and metric alone, with sympy's own symbols,
`diff` and `Matrix`; no library arithmetic takes part past reading those
two inputs. The moments it gives must equal `closure.mu(n)`, and a copy
with one shifted index must not, so the comparison can fail.
"""

from fractions import Fraction

import pytest
import sympy

from hydroclosures.closures import (BurbyClosure, FourFieldClosure, GenericClosure,
                                    Metric, MultiDeltaClosure, WaterbagClosure)
from hydroclosures.poly import MultiPoly

F = Fraction
TOP = 5


def generic(mu2: str, metric):
    return lambda: GenericClosure(MultiPoly.parse(mu2), Metric(metric))


CASES = {
    "fourfield-1/2": lambda: FourFieldClosure(F(1, 2)),
    "burby-3": lambda: BurbyClosure(3),
    "multidelta-2": lambda: MultiDeltaClosure(2),
    "waterbag-1,1,-2": lambda: WaterbagClosure([F(1), F(1), F(-2)]),
    "waterbag-2,-1,1,-2": lambda: WaterbagClosure([F(2), F(-1), F(1), F(-2)]),
    "cubic-mixed-metric": generic("nu1^3 + nu1*nu2^2 + nu2^3", [[2, 1], [1, -1]]),
    "cubic-three-vars": generic("nu1*nu3^2 + nu2^2*nu3", [[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
    "cubic-not-flat": generic("nu1^3 + nu2^3", [[0, 1], [1, 0]]),
}


def rational(x) -> sympy.Rational:
    x = F(x)
    return sympy.Rational(x.numerator, x.denominator)


def sympy_moments(closure, top: int = TOP, shift: int = 0) -> dict:
    """{n: mu_n} for n = 1..top, as sympy expressions in x_0..x_{nv-1}:

      mu_1 = (1/2) x . g^-1 x,
      mu_{n+1} = (grad mu_n . g . grad mu_2 + 2 mu_1 gamma_n
                  + n mu_{n-1} gamma_2) / (n + 2),
      gamma_n = (n+1) mu_n - x . grad mu_n,

    with the index of the pairing's first factor moved down by `shift`."""
    nv = closure.nu_count
    x = sympy.Matrix(sympy.symbols(f"x0:{nv}"))
    g = sympy.Matrix(nv, nv, lambda i, j: rational(closure.metric.g[i][j]))
    mu = {0: sympy.Integer(1), 1: sympy.expand((x.T * g.inv() * x)[0] / 2),
          2: sum((rational(c) * sympy.prod([v ** e for v, e in zip(x, exps)])
                  for exps, c in closure.mu(2).terms.items()), sympy.Integer(0))}

    def grad(p):
        return sympy.Matrix([p]).jacobian(x)

    def gamma(n):
        return (n + 1) * mu[n] - (grad(mu[n]) * x)[0]

    for n in range(2, top):
        pair = (grad(mu[n - shift]) * g * grad(mu[2]).T)[0]
        mu[n + 1] = sympy.expand((pair + 2 * mu[1] * gamma(n)
                                  + n * mu[n - 1] * gamma(2)) / (n + 2))
    return {n: mu[n] for n in range(1, top + 1)}


def as_terms(expr, nv: int) -> dict:
    """{exponent tuple: Fraction} of a sympy polynomial in x_0..x_{nv-1}."""
    terms = sympy.Poly(expr, *sympy.symbols(f"x0:{nv}")).as_dict()
    return {exps: F(int(c.p), int(c.q)) for exps, c in terms.items() if c}


def disagreeing(closure, moments) -> list[int]:
    return [n for n, expr in moments.items()
            if as_terms(expr, closure.nu_count) != dict(closure.mu(n).terms)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_mu_equal_the_sympy_recurrence(case):
    closure = CASES[case]()
    assert disagreeing(closure, sympy_moments(closure)) == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_shifted_index_disagrees(case):
    closure = CASES[case]()
    assert disagreeing(closure, sympy_moments(closure, shift=1))
