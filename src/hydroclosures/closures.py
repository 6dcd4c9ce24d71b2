"""Closure families: explicit polynomial moment functions mu_n(nu).

One engine, `ClosureFamily`, generates every family's moments mu_n
(mu_0 = 1) by one recurrence from the family's data: its normal
variables nu, a constant symmetric metric g and a single cubic mu_2.
Its base, `MomentAlgebra`, derives gamma_n and the gradients from the
mu_n, for closures and for the formal ring of the waterbag certificate
alike; the `memoized` decorator keeps each result in one per-instance
memo. A family adds only its parameters, the identities its verify suite
checks, where one exists an explicit inversion, and where it has one its
own proof of flatness (the waterbag certificate).

Families: multi-delta (M cold streams), waterbag (piecewise-constant
distribution with fixed bag heights), the delta-derivative closure with
its anti-triangular moment system, inverted explicitly from the cached
mu_n, the four-field closure with free parameter kappa, the cold fluid,
and a generic family given directly by mu_2 and g. The direct formulas
for mu_n supply each family's mu_2 and the identities its verify suite
checks; the maps between physical and normal variables are plain
functions, exact for exact input and float64 for float64 arrays.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from fractions import Fraction
from math import comb, isfinite
from numbers import Integral, Rational
from typing import Callable, Sequence

from . import bracket, moments, ratmat
from .poly import MultiPoly


def require_integer(what: str, value):
    """`value`, which must be an Integral but not a bool: 2.9 is refused, not truncated."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


class Metric:
    """Constant symmetric rational metric with exact signature."""

    def __init__(self, rows: Sequence[Sequence]):
        mat = ratmat.as_matrix(rows)
        if not ratmat.is_symmetric(mat):
            raise ValueError("metric must be symmetric")
        object.__setattr__(self, "g", mat)

    def __setattr__(self, name, value):
        raise AttributeError("Metric is immutable")

    @property
    def dim(self) -> int:
        return len(self.g)

    @functools.cached_property
    def signature(self) -> tuple[int, int]:
        return ratmat.signature(self.g)

    def inverse(self) -> ratmat.Matrix:
        return ratmat.inverse(self.g)

    def __eq__(self, other):
        return isinstance(other, Metric) and self.g == other.g

    def __repr__(self):
        return f"Metric({[list(map(str, row)) for row in self.g]})"


def memoized(method):
    """`method`, with each result kept in the instance's `_memo` under the
    method's name, keyed by its argument (or tuple of arguments): a hit
    costs two lookups in small dicts."""
    name = method.__name__
    if method.__code__.co_argcount == 2:
        def lookup(self, n):
            memo = self._memo[name]
            if n not in memo:
                memo[n] = method(self, n)
            return memo[n]
    else:
        def lookup(self, *args):
            memo = self._memo[name]
            if args not in memo:
                memo[args] = method(self, *args)
            return memo[args]
    return functools.wraps(method)(lookup)


class MomentAlgebra:
    """What a closure derives from its moments mu_n, each built once:
    gamma_n and the gradients of mu_n and gamma_n.
    A subclass supplies `mu(n)`, `partials(p)` (the dp/dnu_k, as a tuple
    over k) and `euler(p)` (nu . grad p)."""

    def __init__(self):
        self._memo: defaultdict[str, dict] = defaultdict(dict)

    @memoized
    def gamma(self, n: int) -> MultiPoly:
        """(n+1) mu_n - nu . grad mu_n; zero iff mu_n is homogeneous."""
        mu = self.mu(n)
        return mu if mu.is_zero else (n + 1) * mu - self.euler(mu)

    @memoized
    def grad(self, n: int) -> tuple[MultiPoly, ...]:
        """The partials of mu_n, differentiated once."""
        return self.partials(self.mu(n))

    @memoized
    def gamma_grad(self, n: int) -> tuple[MultiPoly, ...]:
        """The partials of gamma_n, differentiated once."""
        return self.partials(self.gamma(n))


class ClosureFamily(MomentAlgebra):
    """One closure: normal variables, metric g and cubic mu_2, from which

      mu_1 = (1/2) nu . g^-1 nu,
      mu_{n+1} = (1/(n+2)) [ grad mu_n . g . grad mu_2
                             + 2 mu_1 gamma_n + n mu_{n-1} gamma_2 ]

    generates every mu_n, with gamma_n = (n+1) mu_n - nu . grad mu_n.
    mu_n, what `MomentAlgebra` derives from it, the Hessian rows and
    metric products of the pairings and the compiled evaluators are
    memoized; instances are immutable by convention and safe to share.
    """

    def __init__(self, name: str, nu_names: Sequence[str], metric: Metric,
                 mu2: MultiPoly):
        super().__init__()
        self.name = name
        self.nu_names = tuple(nu_names)
        self.nu_count = len(self.nu_names)
        if metric.dim != self.nu_count:
            raise ValueError("metric dimension does not match variable count")
        if mu2.nvars != self.nu_count:
            raise ValueError("mu_2 variable count does not match the metric")
        if self.nu_count:
            metric.signature  # ValueError on a degenerate g, as mu_1 reads g^-1
        self.metric = metric
        self._mu2 = mu2

    @property
    def N(self) -> int:
        """Total fluid-variable count (rho, u, nu_1..nu_{N-2})."""
        return self.nu_count + 2

    @property
    def flatness_size(self) -> int:
        """Moment indices the verify suite checks flatness over."""
        return self.nu_count

    @memoized
    def mu(self, n: int) -> MultiPoly:
        if n < 0:
            raise ValueError("moment index must be nonnegative")
        nv = self.nu_count
        if n == 0:
            return MultiPoly.const(nv, 1)
        if n == 2:
            return self._mu2
        if n == 1:
            ginv = self.metric.inverse() if nv else ()
            x = [MultiPoly.variable(nv, i) for i in range(nv)]
            return sum((Fraction(ginv[i][j], 2) * x[i] * x[j]
                        for i in range(nv) for j in range(nv) if ginv[i][j]),
                       MultiPoly.zero(nv))
        return mu_recurrence(self, n)

    def partials(self, p: MultiPoly) -> tuple[MultiPoly, ...]:
        """(dp/dnu_1, ..., dp/dnu_nv)."""
        return tuple(p.diff(k) for k in range(self.nu_count))

    euler = staticmethod(MultiPoly.euler)

    def grad_pair(self, n: int, m: int) -> MultiPoly:
        """grad mu_n . g . grad mu_m."""
        return self._pair(self.grad(n), self._raised(m))

    def hessian_pair(self, n: int, m: int) -> tuple[MultiPoly, ...]:
        """((d/dnu_k grad mu_n) . g . grad mu_m for k = 1..nv)."""
        raised = self._raised(m)
        return tuple(self._pair(row, raised) for row in self._hessian(n))

    @memoized
    def _hessian(self, n: int) -> tuple[tuple[MultiPoly, ...], ...]:
        return tuple(map(self.partials, self.grad(n)))

    def _pair(self, row: Sequence[MultiPoly], raised: list[list[MultiPoly]]) -> MultiPoly:
        """row . g . grad mu_m, given `_raised(m)`: its products in (i, j)
        order, summed by one `MultiPoly.sum_of_products`. That order gives
        every mu_n the term order `MultiPoly.terms` documents, the order in
        which arithmetic first produced the terms. No value depends on it:
        `compile_float` sorts the terms, and `eval` at a rational point is
        exact."""
        return MultiPoly.sum_of_products(
            self.nu_count, [(a_i, gb) for a_i, gb_i in zip(row, raised)
                            if not a_i.is_zero for gb in gb_i])

    @memoized
    def _raised(self, m: int) -> list[list[MultiPoly]]:
        """Row i holds the nonzero g_ij dmu_m/dnu_j."""
        g, b = self.metric.g, self.grad(m)
        return [[g_ij * b_j for g_ij, b_j in zip(g_i, b) if g_ij and not b_j.is_zero]
                for g_i in g]

    @memoized
    def derived(self, make: Callable):
        """make(self), built once: what another layer derives from it."""
        return make(self)

    def mu_value(self, n: int, nu_values):
        """Fast numeric evaluation of mu_n (floats or numpy arrays)."""
        return self.float_eval("mu", n)(nu_values)

    @memoized
    def float_eval(self, of: str, n: int):
        """The compiled float evaluator of mu_n (of="mu") or gamma_n ("gamma"),
        or the tuple of those of grad mu_n ("grad"): every float value's source."""
        if of == "grad":
            return tuple(p.compile_float() for p in self.grad(n))
        return getattr(self, of)(n).compile_float()

    def flatness(self) -> bracket.FlatnessReport:
        """The verify suite's flatness cells: those of `bracket.check_flatness`."""
        return bracket.check_flatness(self)

    def identities(self) -> list[tuple[str, bool, str]]:
        """The family's own (name, ok, detail) checks for the verify suite;
        by default that the family is homogeneous."""
        if not self.nu_count:
            return []
        return [("homogeneous (gamma_n = 0)",
                 all(self.gamma(n).is_zero for n in range(1, 5)), "")]

    def invert(self, mu_values: Sequence, guess: Sequence | None = None) -> tuple:
        """Normal variables nu with mu_n(nu) = mu_values[n-1], n = 1..nu_count,
        by damped Newton iteration from `guess`."""
        return newton_invert(self, mu_values, guess=guess)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} N={self.N}>"


def mu_recurrence(closure, n: int) -> MultiPoly:
    """mu_n, n >= 3, by the recurrence of `ClosureFamily` from the closure's
    mu, gamma and `grad_pair`; a formal stand-in for a closure supplies its
    own and so checks the recurrence on its candidate moments. A gamma
    term is formed only when its gamma is not zero."""
    out = closure.grad_pair(n - 1, 2)
    if not closure.gamma(n - 1).is_zero:
        out = out + 2 * closure.mu(1) * closure.gamma(n - 1)
    if not closure.gamma(2).is_zero:
        out = out + (n - 1) * closure.mu(n - 2) * closure.gamma(2)
    return out / (n + 1)


# ---------------------------------------------------------------------------
# Multi-delta (multi-stream) family
# ---------------------------------------------------------------------------


def multidelta_mu(M: int, n: int) -> MultiPoly:
    """mu_n = sum_{k=2}^{M} xi_k eta_k^n over (xi_2..xi_M, eta_2..eta_M).

    M = 1 has no normal variables and every mu_n vanishes (cold limit)."""
    if M < 1:
        raise ValueError("need at least one stream")
    if n < 1:
        raise ValueError("moment index must be >= 1")
    nv = 2 * (M - 1)
    acc = MultiPoly.zero(nv)
    for k in range(M - 1):
        acc = acc + MultiPoly.variable(nv, k) * MultiPoly.variable(nv, M - 1 + k) ** n
    return acc


def _offdiag_block_metric(b: int) -> Metric:
    rows = [[Fraction(0)] * (2 * b) for _ in range(2 * b)]
    for i in range(b):
        rows[i][b + i] = rows[b + i][i] = Fraction(1)
    return Metric(rows)


class MultiDeltaClosure(ClosureFamily):
    def __init__(self, M: int):
        if require_integer("stream count M", M) < 1:
            raise ValueError("need at least one stream")
        self.M = M
        names = [f"xi{k}" for k in range(2, M + 1)] + [f"eta{k}" for k in range(2, M + 1)]
        super().__init__(f"multidelta(M={M})", names, _offdiag_block_metric(M - 1),
                         multidelta_mu(M, 2))


def _exact(x):
    """An int as a Fraction; floats and numpy arrays pass through."""
    return Fraction(x) if isinstance(x, int) else x


def multidelta_normal_map(a: Sequence, v: Sequence):
    """(a_1..a_M, v_1..v_M) -> (rho, u, xi_2..xi_M, eta_2..eta_M).

    rho = sum a, u = sum a_l v_l / rho, xi_k = a_k/rho, eta_k = (v_k - v_1)/rho.
    Works on scalars (exact for ints and Fractions) and on numpy arrays
    elementwise.
    """
    if len(a) != len(v):
        raise ValueError("a and v must have equal length")
    rho = _exact(sum(a[1:], a[0]))
    moments.require_positive_density(rho)
    u = sum(ak * vk for ak, vk in zip(a, v)) / rho
    xi = tuple(ak / rho for ak in a[1:])
    eta = tuple((vk - v[0]) / rho for vk in v[1:])
    return rho, u, xi, eta


def multidelta_inverse_map(rho, u, xi: Sequence, eta: Sequence):
    """Inverse of multidelta_normal_map: recover (a_1..a_M, v_1..v_M)."""
    if len(xi) != len(eta):
        raise ValueError("xi and eta must have equal length")
    rho = _exact(rho)
    moments.require_positive_density(rho)
    mu1 = sum(xk * ek for xk, ek in zip(xi, eta)) if xi else 0
    v1 = u - rho * mu1
    a = [rho * (1 - sum(xi))] + [rho * xk for xk in xi]
    v = [v1] + [v1 + rho * ek for ek in eta]
    return tuple(a), tuple(v)


# ---------------------------------------------------------------------------
# Waterbag family
# ---------------------------------------------------------------------------


def _check_heights(a: Sequence[Fraction]) -> tuple[Fraction, ...]:
    a = tuple(Fraction(x) for x in a)
    N = len(a)
    if N < 2:
        raise ValueError("need at least two heights")
    if sum(a) != 0:
        raise ValueError("heights must sum to zero (compact support)")
    sigma = Fraction(0)
    for k in range(N - 1):
        sigma += a[k]
        if sigma == 0:
            raise ValueError(f"degenerate heights: partial sum sigma_{k + 1} = 0")
    if a[-1] == 0:
        raise ValueError("last height must be nonzero")
    return a


def _sigmas(a: Sequence[Fraction]) -> list[Fraction]:
    out, acc = [], Fraction(0)
    for x in a:
        acc += x
        out.append(acc)
    return out


def _wb_nu_poly(nv: int, l: int) -> MultiPoly:
    # boundary conventions nu_0 = 0, nu_{N-1} = 1
    if l == 0:
        return MultiPoly.zero(nv)
    if l == nv + 1:
        return MultiPoly.const(nv, 1)
    return MultiPoly.variable(nv, l - 1)


def waterbag_mu(a: Sequence, n: int) -> MultiPoly:
    """mu_n of the waterbag family as an exact polynomial in nu_1..nu_{N-2}.

    mu_n = ((-1)^n/(n+1)) ( sum_{k<N} a_k (1/(2a_N)
             + sum_{l=k}^{N-1} (nu_l - nu_{l-1})/sigma_l)^{n+1}
             + 1/(2^{n+1} a_N^n) ).
    """
    if n < 1:
        raise ValueError("moment index must be >= 1")
    a = _check_heights(a)
    acc = MultiPoly.const(len(a) - 2, Fraction(1, 2 ** (n + 1) * a[-1] ** n))
    for ak, tail in zip(a, waterbag_tails(a)):
        acc = acc + ak * tail ** (n + 1)
    return acc * Fraction((-1) ** n, n + 1)


def waterbag_tails(a: Sequence) -> list[MultiPoly]:
    """The forms L_k = 1/(2a_N) + sum_{l=k..N-1} (nu_l - nu_{l-1})/sigma_l,
    k = 1..N-1, of `waterbag_mu`. With nu_{N-1} = 1 each is affine in nu
    with the constant term Lambda = -1/(2a_N)."""
    a = _check_heights(a)
    N = len(a)
    nv = N - 2
    sigma = _sigmas(a)
    base = MultiPoly.const(nv, Fraction(1, 2 * a[-1]))
    # tails[k] = 1/(2aN) + sum_{l=k+1..N-1} (nu_l - nu_{l-1})/sigma_l, 0-based k
    tails = [base] * (N - 1)
    for k in range(N - 2, -1, -1):
        step = (_wb_nu_poly(nv, k + 1) - _wb_nu_poly(nv, k)) / sigma[k]
        tails[k] = (tails[k + 1] if k + 1 < N - 1 else base) + step
    return tails


def waterbag_s(a: Sequence, n: int) -> MultiPoly:
    """S_n = -(1/(n+1)) sum_k a_k eta_k^{n+1}, the u-centered moments.

    eta_1 = (1/2) sum_{k>=2} a_k (sum_{l<k} (nu_l - nu_{l-1})/sigma_l)^2 and
    eta_k = eta_1 + sum_{l<k} (nu_l - nu_{l-1})/sigma_l; degree 2n, not
    homogeneous. The verify suite reads its constant terms from
    `waterbag_s_at_zero`; this expansion is their test oracle.
    """
    if n < 0:
        raise ValueError("moment index must be nonnegative")
    a = _check_heights(a)
    N = len(a)
    nv = N - 2
    sigma = _sigmas(a)
    # heads[k] = sum_{l=1..k} (nu_l - nu_{l-1})/sigma_l, 0-based entry k-1
    heads = [MultiPoly.zero(nv)]
    for l in range(N - 1):
        step = (_wb_nu_poly(nv, l + 1) - _wb_nu_poly(nv, l)) / sigma[l]
        heads.append(heads[-1] + step)
    eta1 = MultiPoly.zero(nv)
    for k in range(1, N):
        eta1 = eta1 + Fraction(a[k], 2) * heads[k] ** 2
    acc = MultiPoly.zero(nv)
    for k in range(N):
        acc = acc + a[k] * (eta1 + heads[k]) ** (n + 1)
    return acc * Fraction(-1, n + 1)


def waterbag_s_at_zero(a: Sequence, top: int) -> tuple[Fraction, ...]:
    """The constant terms of `waterbag_s(a, n)` for n = 0..top without
    expanding S_n: -(1/(n+1)) sum_k a_k v_k^{n+1} over the contour
    velocities v_k at nu = 0 (rho = 1, u = 0), found once."""
    v = waterbag_inverse_map(a, Fraction(1), 0, [0] * (len(a) - 2))
    return tuple(-sum(ak * vk ** (n + 1) for ak, vk in zip(a, v)) / (n + 1)
                 for n in range(top + 1))


def waterbag_metric(a: Sequence) -> Metric:
    """Diagonal metric g_kk = -sigma_k sigma_{k+1} / a_{k+1}."""
    a = _check_heights(a)
    sigma = _sigmas(a)
    nv = len(a) - 2
    rows = [[Fraction(0)] * nv for _ in range(nv)]
    for k in range(nv):
        rows[k][k] = -sigma[k] * sigma[k + 1] / a[k + 1]
    return Metric(rows)


class WaterbagClosure(ClosureFamily):
    def __init__(self, heights: Sequence):
        a = _check_heights(heights)
        self.heights = a
        names = [f"nu{k}" for k in range(1, len(a) - 1)]
        super().__init__(f"waterbag(N={len(a)})", names, waterbag_metric(a),
                         waterbag_mu(a, 2))

    @property
    def Lambda(self) -> Fraction:
        return Fraction(-1, 2 * self.heights[-1])

    @functools.cached_property
    def certified(self) -> bool:
        """Whether the power-sum certificate proves the flatness and gamma_n
        checks (docs/waterbag_certificate.md); if not, they run in full."""
        from .certificate import certify_waterbag  # loaded on first use: start-up never imports it
        return certify_waterbag(self)

    def flatness(self) -> bracket.FlatnessReport:
        return bracket.FlatnessReport() if self.certified else super().flatness()

    def identities(self) -> list[tuple[str, bool, str]]:
        """The gamma_n identity for n = 1..2N-3, unless the certificate
        proves it, and the S_n constant terms."""
        a = self.heights
        span = range(1, 2 * self.N - 2)
        gamma_ok = self.certified or all(waterbag_gamma_residual(self, n).is_zero
                                         for n in span)
        s_zero = waterbag_s_at_zero(a, span[-1])
        s_ok = all(s_zero[n] == Fraction(1 + (-1) ** n, (n + 1) * 2 ** (n + 1) * a[-1] ** n)
                   for n in span[1:])
        return [("gamma_n = Lambda^n - n Lambda mu_(n-1)", gamma_ok, ""),
                ("S_n constant terms", s_ok, "")]


def waterbag_gamma_residual(closure, n: int) -> MultiPoly:
    """gamma_n - (Lambda^n - n Lambda mu_(n-1)), zero on a waterbag closure;
    the closure may be the formal stand-in of `certify_waterbag`, whose
    Lambda is a variable."""
    L = closure.Lambda
    return closure.gamma(n) - (L ** n - n * L * closure.mu(n - 1))


def _waterbag_constants(a: Sequence, values: Sequence):
    """Heights and partial sums sigma_k, as Fractions for rational `values`,
    else as floats: a Fraction times a float64 array is an object array."""
    a = _check_heights(a)
    sigma = _sigmas(a)
    if all(isinstance(x, Rational) for x in values):
        return a, sigma
    return [float(x) for x in a], [float(x) for x in sigma]


def waterbag_normal_map(a: Sequence, v: Sequence):
    """Contour velocities (v_1..v_N) -> (rho, u, nu_1..nu_{N-2}).

    rho = -sum a_n v_n, u = -(1/(2 rho)) sum a_n v_n^2,
    nu_k = (1/rho) sum_{l<=k} sigma_l (v_{l+1} - v_l).
    """
    if len(v) != len(a):
        raise ValueError("v must have one entry per height")
    a, sigma = _waterbag_constants(a, v)
    rho = -sum(ak * vk for ak, vk in zip(a, v))
    moments.require_positive_density(rho)
    u = -sum(ak * vk * vk for ak, vk in zip(a, v)) / (2 * rho)
    nu = []
    acc = 0
    for k in range(len(a) - 2):
        acc = acc + sigma[k] * (v[k + 1] - v[k])
        nu.append(acc / rho)
    return rho, u, tuple(nu)


def waterbag_inverse_map(a: Sequence, rho, u, nu: Sequence):
    """Inverse map: recover the contour velocities from (rho, u, nu)."""
    N = len(a)
    if len(nu) != N - 2:
        raise ValueError("nu must have N-2 entries")
    a, sigma = _waterbag_constants(a, (rho, u, *nu))
    rho = _exact(rho)
    moments.require_positive_density(rho)
    nu_full = [0, *nu, 1]  # nu_0 = 0, nu_{N-1} = 1
    # partial sums sum_{l<k} (nu_l - nu_{l-1})/sigma_l for k = 1..N
    heads = [0]
    for l in range(N - 1):
        heads.append(heads[-1] + (nu_full[l + 1] - nu_full[l]) / sigma[l])
    v1 = u + (rho / 2) * sum(a[k] * heads[k] ** 2 for k in range(1, N))
    return tuple(v1 + rho * heads[k] for k in range(N))


# ---------------------------------------------------------------------------
# Delta-derivative (anti-triangular) family
# ---------------------------------------------------------------------------


def burby_mu(m: int, n: int) -> MultiPoly:
    """mu_n at level m by the recursion

      mu_m = nu_m^{m+1}/(m+1),
      mu_n(nu_n..nu_m) = sum_{k=0}^n C(n,k) nu_m^{n-k} mu_k^{(m-n-1)}(nu_{k+n}..nu_{m-1}),

    as a polynomial in the m variables nu_1..nu_m (homogeneous, degree n+1).
    This is the published closure: `BurbyClosure` takes its mu_2 from it, and
    its verify suite compares every generated mu_n with it.
    """
    return _burby_closed(m, n, {})


def _burby_closed(m: int, n: int, memo: dict) -> MultiPoly:
    """`burby_mu(m, n)`, keeping the recursion's subproblems in `memo`,
    which every n at level m can share."""
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
    one = MultiPoly.const(m, 1)

    def term(coef, *powers: tuple[int, int]) -> MultiPoly:
        # coef times nu_(i+1)^e over the (i, e) pairs, built directly
        exps = [0] * m
        for i, e in powers:
            exps[i] += e
        return MultiPoly.monomial(m, exps, coef)

    def rec(l: int, args: tuple[int, ...]) -> MultiPoly:
        # args: global variable indices standing in for (nu_l, ..., nu_level)
        out = memo.get((l, args))
        if out is not None:
            return out
        if not args or l < 0:
            out = MultiPoly.zero(m)
        elif len(args) == 1:
            out = term(Fraction(1, l + 1), (args[0], l + 1))
        else:
            last = args[-1]
            pairs = [(term(1, (args[0], 1), (last, l)), one)]
            for k in range(1, l + 1):
                sub = rec(k, args[k:-1])
                if not sub.is_zero:
                    pairs.append((term(comb(l, k), (last, l - k)), sub))
            out = MultiPoly.sum_of_products(m, pairs)
        memo[l, args] = out
        return out

    return rec(n, tuple(range(n - 1, m)))


def _nth_root_fraction(x: Fraction, k: int) -> Fraction:
    """Exact k-th root of a positive rational; raises if not a perfect power."""
    if x <= 0:
        raise ValueError("need a positive radicand")

    def iroot(v: int) -> int:
        # integer Newton iteration from 2^ceil(bits/k) >= v^(1/k): it
        # decreases to floor(v^(1/k)) and stops there
        r = 1 << -(-v.bit_length() // k)
        while True:
            s = ((k - 1) * r + v // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
        if r ** k != v:
            raise ValueError(f"{v} is not a perfect {k}-th power")
        return r

    return Fraction(iroot(x.numerator), iroot(x.denominator))


def burby_invert(closure: BurbyClosure, mu_values: Sequence,
                 exact: bool = False) -> tuple:
    """Invert the closure's anti-triangular system (mu_1..mu_m) -> (nu_1..nu_m)
    from its cached mu_n, which carry the minus branch's (-1)^n.

    With s the branch sign, mu_m = s nu_m^(m+1)/(m+1): on an odd level mu_m
    must have the sign s, and nu_m = sgn(mu_m) ((m+1)|mu_m|)^(1/(m+1)).
    Back-substitution: nu_n = (mu_n - chi_n)/(s nu_m)^n with chi_n = mu_n
    at nu_n = 0.
    With exact=True all inputs must be Fractions and (m+1)|mu_m| a perfect
    (m+1)-th power; the round trip is then exact.
    """
    m, sign = closure.m, closure._sign
    mu_values = list(mu_values)
    if len(mu_values) != m:
        raise ValueError(f"expected {m} moment values")
    mu_m = mu_values[-1]
    if mu_m == 0:
        raise ValueError("singular leading moment mu_m = 0")
    if m % 2 == 1 and (mu_m < 0) != (sign < 0):
        wrong, right = ("negative", "minus") if sign > 0 else ("positive", "plus")
        raise ValueError(f"{wrong} leading moment on an odd level: select the {right} branch")
    if exact:
        if not all(isinstance(v, (int, Fraction)) for v in mu_values):
            raise ValueError("exact inversion needs rational moment values")
        mu_values = [Fraction(v) for v in mu_values]
        nu_m = _nth_root_fraction((m + 1) * abs(mu_values[-1]), m + 1)
    else:
        radic = float((m + 1) * abs(mu_m))
        if not isfinite(radic):
            raise ValueError(f"leading moment mu_m = {mu_m} overflows: (m+1)|mu_m| = {radic}")
        nu_m = radic ** (1.0 / (m + 1))
        # one Newton step: the float power can be an ulp off, and the
        # back-substitution below amplifies that error
        nu_m -= (nu_m ** (m + 1) - radic) / ((m + 1) * nu_m ** m)
    if mu_m < 0:
        nu_m = -nu_m
    nu = [0] * (m - 1) + [nu_m]
    for n in range(m - 1, 0, -1):
        point = [0] * n + nu[n:]
        chi = closure.mu(n).eval(point) if exact else closure.mu_value(n, point)
        nu[n - 1] = (mu_values[n - 1] - chi) / (sign * nu_m) ** n
    if not exact and not all(map(isfinite, nu)):
        raise ValueError(f"the inversion of mu = {mu_values} is not finite: nu = {nu}")
    return tuple(nu)


def _antidiag_metric(m: int, sign: int = 1) -> Metric:
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        rows[i][m - 1 - i] = Fraction(sign)
    return Metric(rows)


class BurbyClosure(ClosureFamily):
    """Level-m anti-triangular closure; mu_n = 0 for n >= m+1.

    branch='minus' (odd m only) is the sign-flipped copy with metric -g,
    which turns the generated mu_n into (-1)^n mu_n and covers negative
    leading moments; its points have nu_m < 0.
    """

    def __init__(self, m: int, branch: str = "plus"):
        if require_integer("level", m) < 1:
            raise ValueError("level must be >= 1")
        if branch not in ("plus", "minus"):
            raise ValueError("branch must be 'plus' or 'minus'")
        if branch == "minus" and m % 2 == 0:
            raise ValueError("the minus branch only applies to odd levels")
        self.m = m
        self._sign = sign = -1 if branch == "minus" else 1
        names = [f"nu{k}" for k in range(1, m + 1)]
        super().__init__(f"burby(m={m})" + ("-" if sign < 0 else ""),
                         names, _antidiag_metric(m, sign),
                         burby_mu(m, 2) if m >= 2 else MultiPoly.zero(m))

    def closed_form(self, n: int) -> MultiPoly:
        """The published mu_n, `burby_mu(m, n)`: mu_2 is the constructor's
        seed, and the other n share the subproblems of the recursion in
        this closure's memo."""
        if n == 2 and self.m >= 2:
            return self._mu2
        return _burby_closed(self.m, n, self._memo["closed_form"])

    def sample_round_trip(self) -> tuple[list[Fraction], list[float], tuple]:
        """(nu, mu, back): nu = (1/2, ..., 1/2, 2 * branch sign), its float
        moments mu_1..mu_m and their inversion, for verify and casimir."""
        # an alternating point such as ((k+1)/2)(-1)^k is ill-conditioned: even
        # exact back-substitution from its rounded moments misses 1e-12 at m = 14
        nu =[Fraction(1, 2)] * (self.m - 1) + [Fraction(2 * self._sign)]
        mus = [float(self.mu(n).eval(nu)) for n in range(1, self.m + 1)]
        return nu, mus, self.invert(mus)

    def round_trip_error(self) -> tuple[float, float]:
        """(err, bound) of the round trip at the sample point: err is the
        largest relative error of a recovered nu_i, and the round trip
        passes when err <= bound = C kappa u, with u = 2^-53, kappa from
        `inversion_condition` and C = 4.

        Rounding the exact moments to floats moves each by at most u
        relative, which moves nu_i by at most kappa u relative to first
        order. The back-substitution's own roundings (the float root and
        each chi_n, subtraction and division) perturb the moments it works
        from by a few u more, amplified by the same J^-1: C = 4 allows for
        them. Measured on both branches for m <= 23, err / (kappa u) stays
        below 0.63 (0.17 at m = 23 minus, where kappa = 3.9e6 and err =
        7.2e-11); an error of 10^3 kappa u fails.
        """
        nu, mus, back = self.sample_round_trip()
        err = max(abs(b - float(v)) / abs(float(v)) for b, v in zip(back, nu))
        return err, 4 * self.inversion_condition(nu, mus) * 2.0 ** -53

    def inversion_condition(self, nu: Sequence, mus: Sequence) -> float:
        """kappa = max_i sum_j |(J^-1)_ij| |mu_j| / |nu_i| with J = dmu/dnu at
        nu: the relative change of the recovered nu per relative change of
        the moments mus = mu(nu).

        J is evaluated by the compiled gradients. mu_n depends on nu_n..nu_m
        only, so J is upper triangular, and `_solve_float` finds each column
        of J^-1 by back-substitution alone.
        """
        m = self.m
        x = [float(v) for v in nu]
        J = [[f(x) for f in self.float_eval("grad", n)] for n in range(1, m + 1)]
        inv = _solve_float(J, [[float(i == j) for i in range(m)] for j in range(m)])
        return max(sum(abs(inv[j][i] * mus[j]) for j in range(m)) / abs(x[i])
                   for i in range(m))

    def identities(self) -> list[tuple[str, bool, str]]:
        m, sign = self.m, self._sign
        # the generated mu_n against the published closure: "recursion" is
        # the mu_2 recurrence, "closed form" the published `burby_mu`
        ok = all(self.closed_form(n) == sign ** n * self.mu(n) for n in range(1, m + 1))
        err, bound = self.round_trip_error()
        return [("recursion equals closed form", ok, ""),
                ("inversion round trip", err <= bound,
                 f"rel err {err:.2e}, bound {bound:.2e}"),
                *super().identities()]

    def invert(self, mu_values: Sequence, guess: Sequence | None = None,
               exact: bool = False) -> tuple:
        """Explicit inversion by `burby_invert`; `guess` is not needed."""
        return burby_invert(self, mu_values, exact=exact)


# ---------------------------------------------------------------------------
# Four-field family
# ---------------------------------------------------------------------------


class FourFieldClosure(ClosureFamily):
    """N = 4 closure with free parameter kappa, generated from
    mu_2 = Gamma2^3 + kappa Gamma2 Gamma3^2 and the metric [[0, 1], [1, 0]]."""

    def __init__(self, kappa):
        self.kappa = Fraction(kappa)
        g2 = MultiPoly.variable(2, 0)
        g3 = MultiPoly.variable(2, 1)
        super().__init__(f"fourfield(kappa={self.kappa})", ("Gamma2", "Gamma3"),
                         _offdiag_block_metric(1), g2 ** 3 + self.kappa * g2 * g3 ** 2)


# ---------------------------------------------------------------------------
# Generic family from a single cubic
# ---------------------------------------------------------------------------


class GenericClosure(ClosureFamily):
    """A closure given directly by its cubic mu_2 and metric, in the
    variables nu1..nu_k; a mu_2 of total degree above 3 raises ValueError.

    An arbitrary mu_2 is not known to be flat, so its verify suite checks
    flatness over two indices beyond nu_count (the off-column cells) and
    claims no family identities.
    """

    def __init__(self, mu2: MultiPoly, metric: Metric):
        if (mu2.total_degree() or 0) > 3:
            raise ValueError(f"mu_2 must be a cubic, of total degree <= 3, "
                             f"got degree {mu2.total_degree()}")
        names = [f"nu{k}" for k in range(1, metric.dim + 1)]
        super().__init__("generic", names, metric, mu2)

    @property
    def flatness_size(self) -> int:
        return self.nu_count + 2

    def identities(self) -> list[tuple[str, bool, str]]:
        return []


class ColdClosure(ClosureFamily):
    """N = 2 cold fluid: no microscopic variables, all mu_n = 0 for n >= 1."""

    def __init__(self):
        super().__init__("cold", (), Metric(()), MultiPoly.zero(0))


# ---------------------------------------------------------------------------
# Numeric inversion and the equation of state
# ---------------------------------------------------------------------------


def _newton_starts(scale: float, nv: int) -> list[list[float]]:
    """The default Newton starts: four of magnitude `scale`, all positive
    first, then alternating signs (+-+-..., then -+-+...), then all
    negative; then the ramp scale (2k+1)/nv over k = 0..nv-1 and its
    negative, whose components differ in magnitude, for the points where
    every equal-magnitude start meets a singular Jacobian. Repeats are
    dropped."""
    alt = [(-1.0) ** i for i in range(nv)]
    ramp = [(2 * k + 1) / nv for k in range(nv)]
    rows = [[1.0] * nv, alt, [-s for s in alt], [-1.0] * nv, ramp, [-r for r in ramp]]
    starts = []
    for row in rows:
        x = [s * scale for s in row]
        if x not in starts:
            starts.append(x)
    return starts


class InversionError(ValueError, RuntimeError):
    """No default Newton start inverted the moments: they may lie outside
    the closure's range. A RuntimeError too, as every Newton failure is."""


def newton_invert(closure: ClosureFamily, mu_target: Sequence,
                  guess: Sequence | None = None) -> tuple:
    """Solve mu(nu) = mu_target by damped Newton iteration, to a residual
    below 1e-12 within 100 steps.

    The Jacobian rows are the closure's compiled gradients; the step is halved
    until the residual norm decreases. Convergence is local: for families
    with several branches the caller should seed `guess` near the wanted
    branch. Without a guess the iteration starts from [s] * nv with
    s = |mu_2|^(1/3) (1e-3 when nv < 2 or mu_2 = 0) and, if that fails,
    from the sign-flipped and ramp starts of `_newton_starts` in turn; a start
    fails when it stalls, meets a singular Jacobian, does not converge or
    overflows. When every start fails, an InversionError names the moments
    and the first start's error. A closure with no normal variables has the
    empty solution.
    """
    nv = closure.nu_count
    target = [float(v) for v in mu_target]
    if len(target) != nv:
        raise ValueError(f"expected {nv} moment values")
    if not nv:
        return ()
    def residual(pt):
        return [closure.mu_value(n, pt) - t for n, t in enumerate(target, start=1)]

    def norm(r):
        return max(abs(v) for v in r)

    def solve(x):
        r = residual(x)
        for _ in range(100):
            if norm(r) < 1e-12:
                return tuple(x)
            J = [[f(x) for f in closure.float_eval("grad", n)] for n in range(1, nv + 1)]
            step, = _solve_float(J, [[-v for v in r]])
            lam = 1.0
            for _ in range(30):
                x_new = [xi + lam * si for xi, si in zip(x, step)]
                r_new = residual(x_new)
                if norm(r_new) < norm(r):
                    break
                lam *= 0.5
            else:
                raise RuntimeError("Newton inversion stalled (no descent direction)")
            x, r = x_new, r_new
        if norm(r) < 1e-12:
            return tuple(x)
        raise RuntimeError(f"Newton inversion did not converge (residual {norm(r):.3e})")

    if guess is not None:
        return solve([float(v) for v in guess])
    scale = abs(target[1]) ** (1.0 / 3.0) if nv >= 2 and target[1] else 1e-3
    first = None
    for x in _newton_starts(scale, nv):
        try:
            return solve(x)
        except (RuntimeError, OverflowError) as e:
            first = first or e
    raise InversionError(f"no Newton start solves mu = {target}: the moments may lie "
                         f"outside the range of {closure.name} (first start: {first})") from first


def _solve_float(A: list[list[float]], B: list[list[float]]) -> list[list[float]]:
    """x with A x = b for each b in B, by one dense elimination with partial
    pivoting; each x is bit for bit the one b alone gives."""
    n = len(A)
    M = [row[:] + [b[i] for b in B] for i, row in enumerate(A)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        if abs(M[piv][col]) < 1e-300:
            raise RuntimeError("singular Jacobian in Newton step")
        M[col], M[piv] = M[piv], M[col]
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            if f:
                M[r][col:] = [a - f * p for a, p in zip(M[r][col:], M[col][col:])]
    X = [[0.0] * n for _ in B]
    for k, x in enumerate(X, start=n):
        for r in range(n - 1, -1, -1):
            x[r] = (M[r][k] - sum(M[r][c] * x[c] for c in range(r + 1, n))) / M[r][r]
    return X


def equation_of_state(closure: ClosureFamily, mu_observed: Sequence,
                      guess: Sequence | None = None) -> tuple:
    """Closure relation: from observed (mu_1..mu_{N-2}) to the closed
    moments (mu_{N-1}..mu_{2N-3}).

    Inverts the normal-variable map with the family's `invert` (explicit
    for the anti-triangular family, Newton from `guess` elsewhere), then
    evaluates the higher polynomials.
    """
    return closed_moments(closure, closure.invert(mu_observed, guess=guess))


def closed_moments(closure: ClosureFamily, nu: Sequence) -> tuple:
    """The closed moments mu_{N-1}..mu_{2N-3} at the normal variables `nu`."""
    nv = closure.nu_count
    nu = [float(v) for v in nu]
    return tuple(closure.mu_value(n, nu) for n in range(nv + 1, 2 * nv + 2))
