"""The mu_n recurrence, the bracket entries and the flatness cells against
an independent sympy oracle.

`sympy_moments` writes the recurrence of `ClosureFamily` out again in
sympy, from a closure's mu_2 and metric alone, with sympy's own symbols,
`diff` and `Matrix`; no library arithmetic takes part past reading those
two inputs. The moments it gives must equal `closure.mu(n)`, and a copy
with one shifted index must not, so the comparison can fail.

`sympy_bracket` goes on from those moments to every alpha_nm and beta_nmk,
and `sympy_failing_cells` to every flatness cell, each written in full (no
symmetry is used). The entries must equal those of `moments` and the
failing cells those of `check_flatness`; with one gamma term dropped, the
entries must disagree on a waterbag closure, where the gamma_n are live.

The same derivation runs with mu_2's coefficients as symbols: for the
homogeneous binary cubics, the ideal of the cells' equations must be one
quadric times the coordinate ideal, under each of three metrics.
"""

from fractions import Fraction

import pytest
import sympy

from hydroclosures.bracket import check_flatness
from hydroclosures.moments import mu_alpha_entry, mu_beta_entry
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
    "burby-4": lambda: BurbyClosure(4),
    "burby-5": lambda: BurbyClosure(5),
    "multidelta-2": lambda: MultiDeltaClosure(2),
    "multidelta-3": lambda: MultiDeltaClosure(3),
    "waterbag-1,1,-2": lambda: WaterbagClosure([F(1), F(1), F(-2)]),
    "waterbag-2,-1,1,-2": lambda: WaterbagClosure([F(2), F(-1), F(1), F(-2)]),
    "waterbag-1,1,1,-1,-2": lambda: WaterbagClosure([F(1), F(1), F(1), F(-1), F(-2)]),
    "cubic-mixed-metric": generic("nu1^3 + nu1*nu2^2 + nu2^3", [[2, 1], [1, -1]]),
    "cubic-three-vars": generic("nu1*nu3^2 + nu2^2*nu3", [[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
    "cubic-not-flat": generic("nu1^3 + nu2^3", [[0, 1], [1, 0]]),
}


def rational(x) -> sympy.Rational:
    x = F(x)
    return sympy.Rational(x.numerator, x.denominator)


def symbols(nv: int) -> tuple:
    return sympy.symbols(f"x0:{nv}")


def seed(closure) -> tuple:
    """(g, mu_2) of `closure` in sympy: the two inputs the oracle reads."""
    nv = closure.nu_count
    g = sympy.Matrix(nv, nv, lambda i, j: rational(closure.metric.g[i][j]))
    mu2 = sum((rational(c) * sympy.prod([v ** e for v, e in zip(symbols(nv), exps)])
               for exps, c in closure.mu(2).terms.items()), sympy.Integer(0))
    return g, mu2


def sympy_moments(closure, top: int = TOP, shift: int = 0) -> dict:
    return recurrence(*seed(closure), top, shift)


def recurrence(g, mu2, top: int = TOP, shift: int = 0) -> dict:
    """{n: mu_n} for n = 1..top, as sympy expressions in x_0..x_{nv-1}:

      mu_1 = (1/2) x . g^-1 x,
      mu_{n+1} = (grad mu_n . g . grad mu_2 + 2 mu_1 gamma_n
                  + n mu_{n-1} gamma_2) / (n + 2),
      gamma_n = (n+1) mu_n - x . grad mu_n,

    with the index of the pairing's first factor moved down by `shift`.
    mu_2 may have symbols of its own as coefficients."""
    x = sympy.Matrix(symbols(g.rows))
    mu = {0: sympy.Integer(1), 1: sympy.expand((x.T * g.inv() * x)[0] / 2), 2: mu2}

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
    terms = sympy.Poly(expr, *symbols(nv)).as_dict()
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


# bracket entries of n, m <= ENTRY_SIZE, where gamma_2 and gamma_3 take part
ENTRY_SIZE = 3
# the flatness size of each case but the two generic cubics whose mu_9 in
# three variables, or mu_7 in two, would take sympy seconds
FLATNESS_SIZE = {"cubic-mixed-metric": 3, "cubic-three-vars": 3}
GAMMA_TERMS = ("alpha: m mu_(m-1) gamma_n", "alpha: n mu_(n-1) gamma_m",
               "beta: n gamma_m d_k mu_(n-1)", "beta: m mu_(m-1) d_k gamma_n")
HOMOGENEOUS = ("burby-3", "burby-4", "burby-5", "multidelta-2", "multidelta-3",
               "fourfield-1/2", "cubic-mixed-metric", "cubic-three-vars",
               "cubic-not-flat")


def sympy_bracket(closure, size: int, drop=()) -> tuple[dict, dict, dict]:
    return bracket(*seed(closure), size, drop)


def bracket(g, mu2, size: int, drop=()) -> tuple[dict, dict, dict]:
    """(mu, alpha, beta) for n, m = 1..size in sympy:

      gamma_n = (n+1) mu_n - x . grad mu_n,
      alpha[n,m] = (n+m) mu_(n+m-1) - m mu_(m-1) gamma_n - n mu_(n-1) gamma_m,
      beta[n,m;k] = n d_k mu_(n+m-1) - n gamma_m d_k mu_(n-1)
                    - m mu_(m-1) d_k gamma_n,

    leaving out the GAMMA_TERMS named in `drop`."""
    x = symbols(g.rows)
    mu = {0: sympy.Integer(1), **recurrence(g, mu2, max(2 * size - 1, 2))}

    def gamma(n):
        return (n + 1) * mu[n] - sum(xk * sympy.diff(mu[n], xk) for xk in x)

    def term(name, value):
        return 0 if name in drop else value

    alpha, beta = {}, {}
    for n in range(1, size + 1):
        for m in range(1, size + 1):
            alpha[n, m] = sympy.expand(
                (n + m) * mu[n + m - 1]
                - term(GAMMA_TERMS[0], m * mu[m - 1] * gamma(n))
                - term(GAMMA_TERMS[1], n * mu[n - 1] * gamma(m)))
            for k, xk in enumerate(x):
                beta[n, m, k] = sympy.expand(
                    n * sympy.diff(mu[n + m - 1], xk)
                    - term(GAMMA_TERMS[2], n * gamma(m) * sympy.diff(mu[n - 1], xk))
                    - term(GAMMA_TERMS[3], m * mu[m - 1] * sympy.diff(gamma(n), xk)))
    return mu, alpha, beta


def cell_residuals(g, mu2, size: int) -> dict:
    """{cell name: expanded residual} of the flatness cells of
    n, m = 1..size: alpha[n,m] (n <= m) is grad mu_n . g . grad mu_m minus
    alpha, beta[n,m;k] is (d_k grad mu_n) . g . grad mu_m minus beta."""
    x = symbols(g.rows)
    mu, alpha, beta = bracket(g, mu2, size)
    grad = {n: sympy.Matrix([mu[n]]).jacobian(x) for n in range(1, size + 1)}
    residuals = {}
    for n in range(1, size + 1):
        for m in range(1, size + 1):
            if n <= m:
                residuals[f"alpha[{n},{m}]"] = sympy.expand(
                    (grad[n] * g * grad[m].T)[0] - alpha[n, m])
            for k, xk in enumerate(x):
                cell = sympy.diff(grad[n], xk) * g * grad[m].T
                residuals[f"beta[{n},{m};{k + 1}]"] = sympy.expand(cell[0] - beta[n, m, k])
    return residuals


def sympy_failing_cells(closure, size: int) -> set[str]:
    """The flatness cells of n, m = 1..size whose residual does not expand
    to 0."""
    return {name for name, r in cell_residuals(*seed(closure), size).items() if r != 0}


def entry(closure, n, m, k=None):
    """alpha_nm (k None) or beta_nmk of `moments`."""
    return mu_alpha_entry(closure, n, m) if k is None else mu_beta_entry(closure, n, m, k)


def entries_disagreeing(closure, alpha, beta) -> list:
    nv = closure.nu_count
    return [key for key, expr in [*alpha.items(), *beta.items()]
            if as_terms(expr, nv) != dict(entry(closure, *key).terms)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_bracket_entries_equal_the_sympy_formulas(case):
    closure = CASES[case]()
    _, alpha, beta = sympy_bracket(closure, ENTRY_SIZE)
    assert entries_disagreeing(closure, alpha, beta) == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_flatness_verdicts_equal_the_sympy_cells(case):
    # the waterbag closures are checked directly: `verify` would certify them
    closure = CASES[case]()
    size = FLATNESS_SIZE.get(case, closure.flatness_size)
    failing = sympy_failing_cells(closure, size)
    report = check_flatness(closure, size)
    nv = closure.nu_count
    assert {c.name for c in report.checks} == (
        {f"alpha[{n},{m}]" for n in range(1, size + 1) for m in range(n, size + 1)}
        | {f"beta[{n},{m};{k}]" for n in range(1, size + 1) for m in range(1, size + 1)
           for k in range(1, nv + 1)})
    assert {c.name for c in report.failures()} == failing
    assert report.ok == (case not in ("cubic-mixed-metric", "cubic-not-flat"))


@pytest.mark.parametrize("dropped", GAMMA_TERMS)
@pytest.mark.parametrize("case", ["waterbag-1,1,-2", "waterbag-2,-1,1,-2"])
def test_a_dropped_gamma_term_disagrees(case, dropped):
    closure = CASES[case]()
    # n, m <= 2 reach each term with gamma_2 != 0
    _, alpha, beta = sympy_bracket(closure, 2, drop=(dropped,))
    assert entries_disagreeing(closure, alpha, beta)


@pytest.mark.parametrize("case", HOMOGENEOUS)
def test_homogeneous_entries_are_the_benney_chain(case):
    # gamma_n = 0: alpha_nm = (n+m) mu_(n+m-1) and beta_nmk = n d_k mu_(n+m-1)
    closure = CASES[case]()
    _, alpha, beta = sympy_bracket(closure, ENTRY_SIZE, drop=GAMMA_TERMS)
    assert entries_disagreeing(closure, alpha, beta) == []


# ROADMAP item 6: the flat homogeneous binary cubics
# c0 x^3 + c1 x^2 y + c2 x y^2 + c3 y^3 under three metrics. The
# coefficients in x, y of every cell residual with n, m <= 3 are equations
# in the c_i, and their ideal is Q <c0, c1, c2, c3> for one quadric Q.
COEFS = sympy.symbols("c0:4")
_c0, _c1, _c2, _c3 = COEFS
BINARY_QUADRICS = {
    "0,1;1,0": 9 * _c0 * _c3 - _c1 * _c2,
    "1,0;0,1": 3 * _c0 * _c2 - _c1 ** 2 + 3 * _c1 * _c3 - _c2 ** 2,
    "1,0;0,-1": 3 * _c0 * _c2 - _c1 ** 2 - 3 * _c1 * _c3 + _c2 ** 2,
}


@pytest.mark.parametrize("metric", sorted(BINARY_QUADRICS))
def test_flat_binary_cubics_are_a_quadric_times_the_coordinates(metric):
    x, y = symbols(2)
    mu2 = sum(c * x ** (3 - i) * y ** i for i, c in enumerate(COEFS))
    g = sympy.Matrix([[rational(v) for v in row.split(",")] for row in metric.split(";")])
    equations = {coef for r in cell_residuals(g, mu2, 3).values() if r != 0
                 for coef in sympy.Poly(r, x, y).coeffs()}
    ideal = sympy.groebner(list(equations), *COEFS, order="grevlex", domain="QQ")
    want = sympy.groebner([BINARY_QUADRICS[metric] * c for c in COEFS], *COEFS,
                          order="grevlex", domain="QQ")
    assert all(ideal.contains(f) for f in want.exprs)
    assert all(want.contains(f) for f in equations)


# frames T with T g' T^t = g for g' the antidiagonal metric: nu = T nu'
# sends (mu_2, g) to (mu_2 o T, g'), so a cubic is flat under g exactly when
# its image is flat under g' (the covariance of ROADMAP item 4; over C for
# the identity, whose signature differs)
CONGRUENT_FRAMES = {
    "1,0;0,-1": [[1, sympy.Rational(1, 2)], [1, -sympy.Rational(1, 2)]],
    "1,0;0,1": [[1, sympy.Rational(1, 2)], [sympy.I, -sympy.I / 2]],
}


@pytest.mark.parametrize("metric", sorted(CONGRUENT_FRAMES))
def test_the_quadrics_pull_back_to_the_antidiagonal_one(metric):
    x, y = symbols(2)
    T = sympy.Matrix(CONGRUENT_FRAMES[metric])
    g = sympy.Matrix([[rational(v) for v in row.split(",")] for row in metric.split(";")])
    assert T * sympy.Matrix([[0, 1], [1, 0]]) * T.T == g
    mu2 = sum(c * x ** (3 - i) * y ** i for i, c in enumerate(COEFS))
    image = sympy.Poly(mu2.subs(dict(zip((x, y), T * sympy.Matrix([x, y]))),
                                simultaneous=True), x, y)
    moved = [image.coeff_monomial(x ** (3 - i) * y ** i) for i in range(4)]
    ratio = sympy.cancel(BINARY_QUADRICS["0,1;1,0"].subs(dict(zip(COEFS, moved)),
                                                          simultaneous=True)
                         / BINARY_QUADRICS[metric])
    assert ratio.free_symbols == set() and ratio != 0
