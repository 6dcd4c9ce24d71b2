"""An exact certificate for the waterbag verify suite that expands no mu_n
past n = 2.

The waterbag moments are power sums. With the affine forms L_k (k < N) of
`waterbag_tails`, Lambda = -1/(2a_N) and q_j = sum_{k<N} a_k L_k^j,

  mu_n = ((-1)^n/(n+1)) q_{n+1} + Lambda^n/(2(n+1)).

When the L_k have the constant term Lambda, their Gram matrix under g is
-1/a_N - delta_kl/a_k, q_1 = 1/2, and the closure's mu_1 and mu_2 are these
power sums, every residual of the flatness and gamma_n checks is the image
of a polynomial in Lambda, q_2..q_J and D_2..D_J, where D_j stands for
dq_j/dnu_k for any one k. That polynomial depends on the indices only,
never on the heights. `certify_waterbag` checks the hypotheses exactly on
forms of degree <= 1 (and q_2, q_3), the recurrence and gamma_n residuals
in that ring, and the flatness cells by `bracket.check_flatness` over the
ring, `PowerSums`, a `closures.MomentAlgebra` like every closure. A
formal zero is a real zero; a formal non-zero proves nothing, and the
closure then runs the full checks (`WaterbagClosure.certified`).
Antisymmetry needs no certificate: it holds for every closure (see
`check_flatness`), and `verify` builds no bracket to report it.
docs/waterbag_certificate.md gives the argument.
"""

from __future__ import annotations

from fractions import Fraction

from . import bracket
from .closures import (MomentAlgebra, _power_sum, memoized, mu_recurrence,
                       waterbag_gamma_residual, waterbag_tails)
from .poly import MultiPoly


class PowerSums(MomentAlgebra):
    """A formal stand-in for a waterbag closure with moments up to mu_{J-1}.

    Its ring has the variables Lambda (0), q_j (j) and D_j (J + j) for
    j = 1..J. q_1 = 1/2 and D_1 = 0, which is mu_0 = 1. A closure's
    mu_n, the single component d_k mu_n of a gradient, Euler's operator
    E = nu . grad and the pairings grad . g . grad are read from the rules

      E(q_j) = j (q_j - Lambda q_{j-1}),   d_k q_j = D_j,
      grad q_i . g . grad q_j = ij (2 Lambda q_{i-1} q_{j-1} - q_{i+j-2}),
      (d_k grad q_i) . g . grad q_j
          = ij (2 Lambda D_{i-1} q_{j-1} - ((i-1)/(i+j-2)) D_{i+j-2}).

    mu_n (n >= 1) involves q_{n+1} alone, so the rules are only used with
    i, j >= 2 and q_0 never appears. `MomentAlgebra` derives gamma_n, the
    gradients and the bracket entries from them, and
    `closures.mu_recurrence` and `bracket.check_flatness` build their
    formal images unchanged; `grad`, `hessian_pair` and `partials` are
    1-tuples, for the one k.
    """

    def __init__(self, J: int):
        super().__init__()
        self.J = J
        self.nvars = 1 + 2 * J
        self.name = f"power sums (J={J})"
        self.nu_names = ("Lambda", *(f"{v}{j}" for v in "qD" for j in range(1, J + 1)))
        self.Lambda = MultiPoly.variable(self.nvars, 0)

    def q(self, j: int) -> MultiPoly:
        if j == 1:
            return MultiPoly.const(self.nvars, Fraction(1, 2))
        return self._variable(j)

    def D(self, j: int) -> MultiPoly:
        if j == 1:
            return MultiPoly.zero(self.nvars)
        return self._variable(self.J + j)

    @memoized
    def lambda_q(self, j: int) -> MultiPoly:
        return self.Lambda * self.q(j)

    @memoized
    def _variable(self, i: int) -> MultiPoly:
        return MultiPoly.variable(self.nvars, i)

    @memoized
    def mu(self, n: int) -> MultiPoly:
        if n == 0:
            return MultiPoly.const(self.nvars, 1)
        return self.q(n + 1) * Fraction((-1) ** n, n + 1) + self.Lambda ** n / (2 * (n + 1))

    def euler(self, p: MultiPoly) -> MultiPoly:
        """E p for p in Lambda and the q_j."""
        return self._chain(p, self._euler_q)

    def partials(self, p: MultiPoly) -> tuple[MultiPoly]:
        """(d_k p,) for p in Lambda and the q_j."""
        return (self._chain(p, self.D),)

    def grad_pair(self, n: int, m: int) -> MultiPoly:
        """grad mu_n . g . grad mu_m."""
        return self._pair(self._mu_coords(n), self._mu_coords(m), self._gram)

    def hessian_pair(self, n: int, m: int) -> tuple[MultiPoly]:
        """((d_k grad mu_n) . g . grad mu_m,): d_k acts on the coefficients
        of grad mu_n = sum_i (dmu_n/dq_i) grad q_i and on each grad q_i."""
        a, b = self._mu_coords(n), self._mu_coords(m)
        return (self._pair({i: self._chain(c, self.D) for i, c in a.items()}, b, self._gram)
                + self._pair(a, b, self._hessian_gram),)

    @memoized
    def _euler_q(self, j: int) -> MultiPoly:
        return (self.q(j) - self.lambda_q(j - 1)) * j

    def _coords(self, p: MultiPoly) -> dict[int, MultiPoly]:
        """{j: dp/dq_j} over the q_j that p depends on."""
        present = {j for exps in p.terms for j in range(1, self.J + 1) if exps[j]}
        return {j: p.diff(j) for j in sorted(present)}

    @memoized
    def _mu_coords(self, n: int) -> dict[int, MultiPoly]:
        return self._coords(self.mu(n))

    def _chain(self, p: MultiPoly, image) -> MultiPoly:
        """The derivation sending q_j to image(j) and Lambda to 0, at p."""
        return MultiPoly.sum_of_products(
            self.nvars, ((c, image(j)) for j, c in self._coords(p).items()))

    def _pair(self, a: dict, b: dict, rule) -> MultiPoly:
        """sum_ij a_i b_j rule(i, j)."""
        return MultiPoly.sum_of_products(
            self.nvars, ((ai * bj, rule(i, j)) for i, ai in a.items() if not ai.is_zero
                         for j, bj in b.items()))

    @memoized
    def _gram(self, i: int, j: int) -> MultiPoly:
        """grad q_i . g . grad q_j."""
        return (self.lambda_q(i - 1) * self.q(j - 1) * 2 - self.q(i + j - 2)) * (i * j)

    @memoized
    def _hessian_gram(self, i: int, j: int) -> MultiPoly:
        """(d_k grad q_i) . g . grad q_j."""
        return (self.D(i - 1) * self.lambda_q(j - 1) * 2
                - self.D(i + j - 2) * Fraction(i - 1, i + j - 2)) * (i * j)


def formal_residuals(alg: PowerSums, top: int):
    """(name, residual) of the recurrence for mu_3..mu_top and of
    gamma_n = Lambda^n - n Lambda mu_{n-1} for n = 1..top, lazily and in
    order. `alg` needs J >= top + 1."""
    for n in range(3, top + 1):
        yield f"mu_{n}", mu_recurrence(alg, n) - alg.mu(n)
    for n in range(1, top + 1):
        yield f"gamma_{n}", waterbag_gamma_residual(alg, n)


def certify_waterbag(closure) -> bool:
    """True when the flatness and gamma_n checks of `verify` provably pass
    on this waterbag closure, from its heights, metric, mu_1 and mu_2
    alone; False when a hypothesis or a formal identity fails, and then
    only the full checks can tell."""
    nv = closure.nu_count
    top = 2 * nv + 1  # the gamma_n check runs to 2N - 3
    alg = PowerSums(top + 1)
    return (_hypotheses_hold(closure)
            and all(r.is_zero for _, r in formal_residuals(alg, top))
            and bracket.check_flatness(alg, nv).ok)


def _hypotheses_hold(closure) -> bool:
    """The tail forms are affine with the constant term Lambda, their Gram
    matrix under g is 2 Lambda - delta_kl/a_k, q_1 = 1/2, and mu_1 and mu_2
    are the power sums. All is read from the closure's heights, metric,
    mu_1 and mu_2: O(N^2) pairs of constant gradients, and the expansion
    of q_2 and q_3."""
    a, nv, lam = closure.heights, closure.nu_count, closure.Lambda
    if len(a) != nv + 2:
        return False
    tails = waterbag_tails(a)
    if any(t.total_degree() > 1 or t.constant_term() != lam for t in tails):
        return False
    units = [tuple(int(i == j) for j in range(nv)) for i in range(nv)]
    grads = [[t.terms.get(e, 0) for e in units] for t in tails]
    g = closure.metric.g
    raised = [[sum(g[i][j] * v[j] for j in range(nv) if g[i][j] and v[j]) for i in range(nv)]
              for v in grads]
    for k, u in enumerate(grads):
        for l in range(k, nv + 1):
            gram = sum(x * y for x, y in zip(u, raised[l]) if x and y)
            if gram != 2 * lam - (1 / a[k] if k == l else 0):
                return False
    q = [_power_sum(a, tails, j, MultiPoly.zero(nv)) for j in (1, 2, 3)]
    return (q[0] == Fraction(1, 2) and closure.mu(1) == -q[1] / 2 + lam / 4
            and closure.mu(2) == q[2] / 3 + lam ** 2 / 6)
