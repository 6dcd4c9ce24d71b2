"""Reference formulas that only the tests read.

Each states a quantity directly, independently of the way the library
derives it: a polynomial under the linear substitution nu -> T nu, the
inhomogeneity measure gamma_n, the published four-field
polynomials, the closed form of the Burby moments, the S_n re-centering
sum, the full bracket metric, the antisymmetry residuals of a bracket,
the multi-stream invariants, the condition number of the Burby inversion
by triangular back-substitution, the anti-triangular identities that
make that back-substitution an inversion, and the general paths of
`MultiPoly` addition, multiplication, scaling and float and exact
evaluation and of
the matrix inverse
and the congruence, which the library's short-cuts past zero operands and unit
coefficients and its sparse kernels must match, and the waterbag and
multi-delta closed forms and maps loop by loop, each with its own pass over
the contour partial sums, which the library's one contour construction and
one power sum must match. Test
modules import them with `from oracles import ...` (pytest puts this
directory on `sys.path`).
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd
from typing import Sequence

import numpy as np

from hydroclosures import ratmat
from hydroclosures.poly import MultiPoly, _make, _unpack
from hydroclosures.sim import poisson_solve


def poly_vars(nvars: int) -> list[MultiPoly]:
    """The list [x_0, ..., x_{nvars-1}] as polynomials."""
    return [MultiPoly.variable(nvars, i) for i in range(nvars)]


def linear_substitution(p: MultiPoly, T) -> MultiPoly:
    """p(T nu): every variable x_i replaced by sum_j T_ij x_j, and each term
    expanded by repeated multiplication."""
    n = p.nvars
    x = poly_vars(n)
    images = [sum((Fraction(t) * x_j for t, x_j in zip(row, x)), MultiPoly.zero(n))
              for row in T]
    out = MultiPoly.zero(n)
    for exps, c in p.terms.items():
        term = MultiPoly.const(n, c)
        for image, e in zip(images, exps):
            for _ in range(e):
                term = term * image
        out = out + term
    return out


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


def burby_mu_closed(m: int, n: int) -> MultiPoly:
    """Closed form: (1/(n+1)) sum over ordered tuples n <= i_1..i_{n+1} <= m
    with i_1+...+i_{n+1} = n(m+1) of nu_{i_1}...nu_{i_{n+1}}, for
    1 <= n <= m, as a polynomial in the m variables nu_1..nu_m.
    """
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
    target = n * (m + 1)
    acc = MultiPoly.zero(m)
    for combo in combinations_with_replacement(range(n, m + 1), n + 1):
        if sum(combo) != target:
            continue
        # count ordered tuples for this multiset
        mult = 1
        rem = n + 1
        for idx in set(combo):
            c = combo.count(idx)
            mult *= comb(rem, c)
            rem -= c
        exps = [0] * m
        for idx in combo:
            exps[idx - 1] += 1
        acc = acc + MultiPoly.monomial(m, exps, Fraction(mult, n + 1))
    return acc


def burby_anti_triangular(closure) -> bool:
    """The identities that let back-substitution invert a level-m Burby
    closure's cached mu_n, with s its branch sign: mu_m = s nu_m^(m+1)/(m+1),
    and for n < m mu_n has no term in nu_1..nu_(n-1) and
    d mu_n/d nu_n = (s nu_m)^n, all as exact polynomial equalities."""
    m, s = closure.m, closure._sign
    top = [0] * (m - 1)
    if closure.mu(m) != MultiPoly.monomial(m, top + [m + 1], Fraction(s, m + 1)):
        return False
    for n in range(1, m):
        mu = closure.mu(n)
        if any(any(exps[:n - 1]) for exps in mu.terms):
            return False
        if mu.diff(n - 1) != MultiPoly.monomial(m, top + [n], s ** n):
            return False
    return True


def full_metric(closure):
    """Metric of the full partially-decoupled bracket: the canonical
    (rho, u) block [[0,1],[1,0]] plus the microscopic metric."""
    pad = [0] * closure.nu_count
    return ratmat.as_matrix([[0, 1, *pad], [1, 0, *pad],
                             *([0, 0, *row] for row in closure.metric.g)])


def symmetry_residuals(hb) -> list:
    """(n, m, r) for each entry r = alpha_nm - alpha_mn of the bracket hb
    (a `moments.HydroBracket`) that is not identically zero."""
    out = []
    for n in range(hb.nfields):
        for m in range(n + 1, hb.nfields):
            r = hb.alpha[n][m] - hb.alpha[m][n]
            if not r.is_zero:
                out.append((n, m, r))
    return out


def antisymmetry_residuals(hb) -> list:
    """(n, m, k, r) for each violation r of d(alpha_nm)/du_k = beta_nmk + beta_mnk."""
    out = []
    for n in range(hb.nfields):
        for m in range(hb.nfields):
            for k in range(hb.nfields):
                r = hb.alpha[n][m].diff(k) - hb.beta[n][m][k] - hb.beta[m][n][k]
                if not r.is_zero:
                    out.append((n, m, k, r))
    return out


def is_antisymmetric(hb) -> bool:
    """Whether alpha is symmetric and d(alpha_nm)/du_k = beta_nmk + beta_mnk."""
    return not symmetry_residuals(hb) and not antisymmetry_residuals(hb)


def stream_diagnostics(state, grid):
    """(H, mass, momentum) of the multi-stream model."""
    rho = np.sum(state.a, axis=0)
    E = poisson_solve(rho, state.n0, grid)
    H = 0.5 * grid.integral(np.sum(state.a * state.v ** 2, axis=0) + E ** 2)
    return H, grid.integral(rho), grid.integral(np.sum(state.a * state.v, axis=0))


def combine_general(p: MultiPoly, q: MultiPoly, sign: int) -> MultiPoly:
    """p + sign*q over the common denominator, term by term, zero operand
    or not: the terms of p first, then the new ones of q."""
    da, db = p._den, q._den
    if da == db:
        out = dict(p._num)
        mb = sign
    else:
        g = gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        da *= ma
        out = {k: c * ma for k, c in p._num.items()}
    for k, c in q._num.items():
        out[k] = out.get(k, 0) + c * mb
    return _make(p.nvars, {k: c for k, c in out.items() if c}, da)


def mul_general(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p * q by the full double loop over the terms of p, then of q, square
    or not, zero operand or not; a key joins at its first appearance."""
    out = {}
    for k1, c1 in p._num.items():
        for k2, c2 in q._num.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return _make(p.nvars, {k: c for k, c in out.items() if c}, p._den * q._den)


def compile_float_general(p: MultiPoly):
    """The float evaluator of p with every factor multiplied out: the
    coefficient, unit or not, times each values[i] ** e with e != 0 (e = 1
    as values[i] itself), the terms added to 0.0 in `sorted_terms` order."""
    compiled = [(float(c), exps) for exps, c in p.sorted_terms()]

    def evaluate(values):
        acc = 0.0
        for c, exps in compiled:
            term = c
            for v, e in zip(values, exps):
                if e == 1:
                    term = term * v
                elif e:
                    term = term * v ** e
            acc = acc + term
        return acc

    return evaluate


def scale_general(p: MultiPoly, n: int, d: int) -> MultiPoly:
    """p * n/d (d > 0) by scaling every numerator, n = d or not."""
    if not n:
        return MultiPoly.zero(p.nvars)
    return _make(p.nvars, {k: c * n for k, c in p._num.items()}, p._den * d)


def eval_general(p: MultiPoly, values):
    """p at `values`, term by term in the values' own arithmetic: each
    term's Fraction coefficient times values[i] ** e for e != 0, the terms
    summed in term order; Fraction(0) for the zero polynomial."""
    acc = None
    for key, num in p._num.items():
        term = Fraction(num, p._den)
        for v, e in zip(values, _unpack(key, p.nvars)):
            if e:
                term = term * v ** e
        acc = term if acc is None else acc + term
    return Fraction(0) if acc is None else acc


def inversion_condition_backsub(closure, nu, mus) -> float:
    """kappa of `BurbyClosure.inversion_condition` by its triangular loop:
    J = dmu/dnu from the gradients evaluated term by term (`eval_general`),
    and each column of J^-1 by its own back-substitution over rows j..0."""
    m = closure.m
    x = [float(v) for v in nu]
    J = [[0.0] * (n - 1) + [eval_general(p, x) for p in closure.grad(n)[n - 1:]]
         for n in range(1, m + 1)]
    inv = [[0.0] * m for _ in range(m)]
    for j in range(m):
        for i in range(j, -1, -1):
            acc = float(i == j) - sum(J[i][k] * inv[k][j] for k in range(i + 1, j + 1))
            inv[i][j] = acc / J[i][i]
    return max(sum(abs(inv[i][j] * mus[j]) for j in range(m)) / abs(x[i])
               for i in range(m))


def inverse_dense(a) -> tuple:
    """Exact inverse by Gauss-Jordan elimination with partial pivoting on
    the dense augmented matrix [a | I]."""
    n = len(a)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def congruence_dense(g) -> tuple:
    """(T, d) with T^t g T = diag(d) by symmetric Gaussian elimination in
    which every column operation updates every entry, zero addend or not."""
    n = len(g)
    a = [list(row) for row in g]
    t = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def col_op(dst, src, factor):
        for r in range(n):
            a[r][dst] += factor * a[r][src]
        for c in range(n):
            a[dst][c] += factor * a[src][c]
        for r in range(n):
            t[r][dst] += factor * t[r][src]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for c in range(n):
            a[i][c], a[j][c] = a[j][c], a[i][c]
        for r in range(n):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    for i in range(n):
        if a[i][i] == 0:
            j = next((r for r in range(i + 1, n) if a[r][r] != 0), None)
            if j is not None:
                col_swap(i, j)
            else:
                j = next((c for c in range(i + 1, n) if a[i][c] != 0), None)
                if j is None:
                    continue
                col_op(i, j, Fraction(1))
        for j in range(i + 1, n):
            if a[i][j]:
                col_op(j, i, -a[i][j] / a[i][i])
    return tuple(tuple(row) for row in t), tuple(a[i][i] for i in range(n))


# ---------------------------------------------------------------------------
# Waterbag and multi-delta closed forms, loop by loop. Each takes valid
# heights a_1..a_N (Fractions); sigma_k = a_1 + ... + a_k.
# ---------------------------------------------------------------------------


def _partial_sums(a) -> list:
    out, acc = [], Fraction(0)
    for x in a:
        acc += x
        out.append(acc)
    return out


def _wb_nu(nv: int, l: int) -> MultiPoly:
    """nu_l as a polynomial, with nu_0 = 0 and nu_{N-1} = 1."""
    if l == 0:
        return MultiPoly.zero(nv)
    if l == nv + 1:
        return MultiPoly.const(nv, 1)
    return MultiPoly.variable(nv, l - 1)


def waterbag_tails_loop(a) -> list:
    """L_k = 1/(2a_N) + sum_{l=k..N-1} (nu_l - nu_{l-1})/sigma_l, k = 1..N-1,
    summed backwards from L_{N-1}."""
    N, nv = len(a), len(a) - 2
    sigma = _partial_sums(a)
    base = MultiPoly.const(nv, Fraction(1, 2 * a[-1]))
    tails = [base] * (N - 1)
    for k in range(N - 2, -1, -1):
        step = (_wb_nu(nv, k + 1) - _wb_nu(nv, k)) / sigma[k]
        tails[k] = (tails[k + 1] if k + 1 < N - 1 else base) + step
    return tails


def waterbag_mu_loop(a, n: int) -> MultiPoly:
    """((-1)^n/(n+1)) (sum_{k<N} a_k L_k^{n+1} + 1/(2^{n+1} a_N^n))."""
    acc = MultiPoly.const(len(a) - 2, Fraction(1, 2 ** (n + 1) * a[-1] ** n))
    for ak, tail in zip(a, waterbag_tails_loop(a)):
        acc = acc + ak * tail ** (n + 1)
    return acc * Fraction((-1) ** n, n + 1)


def waterbag_s_loop(a, n: int) -> MultiPoly:
    """-(1/(n+1)) sum_k a_k (eta_1 + h_k)^{n+1}, with the partial sums h_k
    summed forwards and eta_1 = (1/2) sum_{k>=2} a_k h_k^2."""
    N, nv = len(a), len(a) - 2
    sigma = _partial_sums(a)
    heads = [MultiPoly.zero(nv)]
    for l in range(N - 1):
        heads.append(heads[-1] + (_wb_nu(nv, l + 1) - _wb_nu(nv, l)) / sigma[l])
    eta1 = MultiPoly.zero(nv)
    for k in range(1, N):
        eta1 = eta1 + Fraction(a[k], 2) * heads[k] ** 2
    acc = MultiPoly.zero(nv)
    for k in range(N):
        acc = acc + a[k] * (eta1 + heads[k]) ** (n + 1)
    return acc * Fraction(-1, n + 1)


def _wb_constants(a, values):
    """Heights and partial sums, as floats unless every value is rational."""
    sigma = _partial_sums(a)
    if all(isinstance(x, (int, Fraction)) for x in values):
        return a, sigma
    return [float(x) for x in a], [float(x) for x in sigma]


def waterbag_inverse_map_loop(a, rho, u, nu) -> tuple:
    """The contour velocities from (rho, u, nu), over numbers or arrays."""
    N = len(a)
    a, sigma = _wb_constants(a, (rho, u, *nu))
    rho = Fraction(rho) if isinstance(rho, int) else rho
    nu_full = [0, *nu, 1]
    heads = [0]
    for l in range(N - 1):
        heads.append(heads[-1] + (nu_full[l + 1] - nu_full[l]) / sigma[l])
    v1 = u + (rho / 2) * sum(a[k] * heads[k] ** 2 for k in range(1, N))
    return tuple(v1 + rho * heads[k] for k in range(N))


def waterbag_normal_map_loop(a, v) -> tuple:
    """(rho, u, nu) from the contour velocities, over numbers or arrays."""
    a, sigma = _wb_constants(a, v)
    rho = -sum(ak * vk for ak, vk in zip(a, v))
    u = -sum(ak * vk * vk for ak, vk in zip(a, v)) / (2 * rho)
    nu, acc = [], 0
    for k in range(len(a) - 2):
        acc = acc + sigma[k] * (v[k + 1] - v[k])
        nu.append(acc / rho)
    return rho, u, tuple(nu)


def waterbag_s_at_zero_loop(a, top: int) -> tuple:
    """-(1/(n+1)) sum_k a_k v_k^{n+1} at nu = 0, rho = 1, u = 0, n = 0..top."""
    v = waterbag_inverse_map_loop(a, Fraction(1), 0, [0] * (len(a) - 2))
    return tuple(-sum(ak * vk ** (n + 1) for ak, vk in zip(a, v)) / (n + 1)
                 for n in range(top + 1))


def multidelta_mu_loop(M: int, n: int) -> MultiPoly:
    """sum_{k=2}^{M} xi_k eta_k^n over (xi_2..xi_M, eta_2..eta_M)."""
    nv = 2 * (M - 1)
    acc = MultiPoly.zero(nv)
    for k in range(M - 1):
        acc = acc + MultiPoly.variable(nv, k) * MultiPoly.variable(nv, M - 1 + k) ** n
    return acc
