"""Symbolic hydrodynamic brackets: construction, transformation, and
verification of the antisymmetry and flatness identities.

A hydrodynamic bracket is stored through its coefficient data only:
the symmetric matrix alpha and the derivative-coefficient tensor beta
(beta_nm = sum_k beta_nmk * d_x u_k).  Entries are exact MultiPoly (or
RatFunc after a change of variables), so every identity check reduces to
"normal form of a difference is the zero polynomial".

The Jacobi identity is certified through flatness: a closure whose
normal-variable parameterization satisfies the algebraic identities
checked by `check_flatness` has a bracket congruent to one with constant
metric, which satisfies Jacobi automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import ratmat
from .moments import mu_alpha_entry, mu_beta_entry
from .poly import MultiPoly, RatFunc


def _is_zero(entry) -> bool:
    return entry.is_zero if hasattr(entry, "is_zero") else entry == 0


@dataclass(frozen=True)
class HydroBracket:
    """Coefficients (alpha, beta) of a hydrodynamic bracket.

    alpha[n][m] and beta[n][m][k] are polynomials (or rational functions)
    in `nderiv` variables; beta[n][m][k] multiplies the x-derivative of
    variable k.  For brackets expressed directly in their own field
    variables, nderiv == nfields.
    """

    nfields: int
    alpha: list
    beta: list
    nderiv: int

    def symmetry_residuals(self):
        """Entries alpha_nm - alpha_mn that are not identically zero."""
        out = []
        for n in range(self.nfields):
            for m in range(n + 1, self.nfields):
                r = self.alpha[n][m] - self.alpha[m][n]
                if not _is_zero(r):
                    out.append((n, m, r))
        return out

    def antisymmetry_residuals(self):
        """Violations of d(alpha_nm)/du_k = beta_nmk + beta_mnk."""
        out = []
        for n in range(self.nfields):
            for m in range(self.nfields):
                for k in range(self.nderiv):
                    r = self.alpha[n][m].diff(k) - self.beta[n][m][k] - self.beta[m][n][k]
                    if not _is_zero(r):
                        out.append((n, m, k, r))
        return out

    @property
    def is_antisymmetric(self) -> bool:
        return not self.symmetry_residuals() and not self.antisymmetry_residuals()


def km_bracket(N: int) -> HydroBracket:
    """Truncated Kupershmidt-Manin bracket in the raw moments P_0..P_{N-1}:
    alpha_nm = (n+m) P_{n+m-1}, beta_nmk = n [k = n+m-1].

    Entries with n+m-1 outside 0..N-1 are set to zero; with a closure they
    would be replaced by the closure functions.
    """
    if N < 2:
        raise ValueError("need at least two moments")
    zero = MultiPoly.zero(N)
    alpha = [[(n + m) * MultiPoly.variable(N, n + m - 1) if 0 <= n + m - 1 < N else zero
              for m in range(N)] for n in range(N)]
    beta = [[[MultiPoly.const(N, n) if (k == n + m - 1 and n + m >= 1) else zero
              for k in range(N)] for m in range(N)] for n in range(N)]
    return HydroBracket(nfields=N, alpha=alpha, beta=beta, nderiv=N)


def _det(mat: list) -> RatFunc:
    """Determinant of a small matrix of RatFunc by Laplace expansion."""
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return mat[0][0]
    acc = None
    for j in range(n):
        minor = [[mat[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = mat[0][j] * _det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def transform(b: HydroBracket, new_from_old: Sequence, old_from_new: Sequence) -> HydroBracket:
    """Change of field variables u -> Q(u) applied to a bracket.

    new_from_old: Q_k as RatFunc/MultiPoly in the old variables.
    old_from_new: u_i as RatFunc/MultiPoly in the new variables (the
    inverse map, needed to express the result in the new variables).

    Implements
      alpha'_kl = (dQ_k/du_n) alpha_nm (dQ_l/du_m)
      beta'_kl  = d_x(dQ_k/du_n) alpha_nm (dQ_l/du_m) + (dQ_k/du_n) beta_nm (dQ_l/du_m)
    with d_x expanded through the chain rule onto d_x Q_j.
    """
    n_old = b.nfields
    if len(new_from_old) != n_old or len(old_from_new) != n_old:
        raise ValueError("change of variables must be square")
    Q = [RatFunc.of(q, n_old) for q in new_from_old]
    U = [RatFunc.of(u, n_old) for u in old_from_new]
    J = [[Q[k].diff(n) for n in range(n_old)] for k in range(n_old)]  # in old vars
    if _det(J).is_zero:
        raise ValueError("singular Jacobian: change of variables is not invertible")
    K = [[U[i].diff(j) for j in range(n_old)] for i in range(n_old)]  # in new vars
    alpha_old = [[RatFunc.of(b.alpha[n][m], n_old) for m in range(n_old)] for n in range(n_old)]
    beta_old = [[[RatFunc.of(b.beta[n][m][k], n_old) for k in range(n_old)]
                 for m in range(n_old)] for n in range(n_old)]

    def compose(expr: RatFunc) -> RatFunc:
        return expr.compose(U)

    zero_new = RatFunc.of(0, n_old)
    alpha_new = [[zero_new for _ in range(n_old)] for _ in range(n_old)]
    beta_new = [[[zero_new for _ in range(n_old)] for _ in range(n_old)] for _ in range(n_old)]
    for k in range(n_old):
        for l in range(n_old):
            a_acc = zero_new
            b_acc = [zero_new] * n_old  # coefficient of d_x(old_i), still in old vars
            for n in range(n_old):
                for m in range(n_old):
                    if not (J[k][n].is_zero or J[l][m].is_zero):
                        a = alpha_old[n][m]
                        if not a.is_zero:
                            a_acc = a_acc + J[k][n] * a * J[l][m]
                            for i in range(n_old):
                                dj = J[k][n].diff(i)
                                if not dj.is_zero:
                                    b_acc[i] = b_acc[i] + dj * a * J[l][m]
                        for i in range(n_old):
                            bi = beta_old[n][m][i]
                            if not bi.is_zero:
                                b_acc[i] = b_acc[i] + J[k][n] * bi * J[l][m]
            alpha_new[k][l] = compose(a_acc)
            # d_x(old_i) = K_ij d_x(new_j)
            for j in range(n_old):
                acc = zero_new
                for i in range(n_old):
                    if not b_acc[i].is_zero and not K[i][j].is_zero:
                        acc = acc + compose(b_acc[i]) * K[i][j]
                beta_new[k][l][j] = acc
    return HydroBracket(nfields=n_old, alpha=alpha_new, beta=beta_new, nderiv=n_old)


# ---------------------------------------------------------------------------
# Flatness verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatnessCheck:
    name: str
    ok: bool
    residual: str = ""


@dataclass(frozen=True)
class FlatnessReport:
    family: str
    checks: list[FlatnessCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


def check_flatness(closure, size: int | None = None) -> FlatnessReport:
    """Verify, as exact polynomial identities in the normal variables, that
    the closure's mu-parameterization flattens its bracket:

      (a)  grad(mu_n) . g . grad(mu_m) = alpha_nm(mu)
      (b)  [d/dnu_k grad(mu_n)] . g . grad(mu_m) = beta_nmk(mu)

    for n, m = 1..size (default: the closure's microscopic field count).
    Identity (b) is the chain-rule expansion of the derivative equation:
    only the first gradient factor carries the x-derivative.
    """
    if size is None:
        size = closure.nu_count
    nv = closure.nu_count
    g = closure.metric.g
    checks = []
    grads = {}

    def grad(n):
        if n not in grads:
            p = closure.mu(n)
            grads[n] = [p.diff(k) for k in range(nv)]
        return grads[n]

    def pair(gn, gm):
        acc = MultiPoly.zero(nv)
        for i in range(nv):
            for j in range(nv):
                if g[i][j]:
                    # the MultiPoly on the left skips Fraction.__mul__'s
                    # NotImplemented round trip
                    acc = acc + gn[i] * g[i][j] * gm[j]
        return acc

    for n in range(1, size + 1):
        for m in range(n, size + 1):
            gn, gm = grad(n), grad(m)
            res_a = pair(gn, gm) - mu_alpha_entry(closure, n, m)
            checks.append(FlatnessCheck(
                name=f"alpha[{n},{m}]",
                ok=res_a.is_zero,
                residual="" if res_a.is_zero else res_a.to_text(closure.nu_names)))
            for first, second in ((n, m),) if n == m else ((n, m), (m, n)):
                gf, gs = grad(first), grad(second)
                for k in range(nv):
                    dgf = [p.diff(k) for p in gf]
                    res_b = pair(dgf, gs) - mu_beta_entry(closure, first, second, k)
                    checks.append(FlatnessCheck(
                        name=f"beta[{first},{second};{k + 1}]",
                        ok=res_b.is_zero,
                        residual="" if res_b.is_zero else res_b.to_text(closure.nu_names)))
    return FlatnessReport(family=getattr(closure, "name", "closure"), checks=checks)


# ---------------------------------------------------------------------------
# Signature and Casimir bookkeeping
# ---------------------------------------------------------------------------


def signature(g) -> tuple[int, int]:
    """Signature (positive, negative) of a metric, by exact congruence."""
    rows = g.g if hasattr(g, "g") else g
    return ratmat.signature(ratmat.as_matrix(rows))


def full_metric(closure):
    """Metric of the full partially-decoupled bracket: the canonical
    (rho, u) block [[0,1],[1,0]] plus the microscopic metric."""
    nv = closure.nu_count
    g = closure.metric.g
    size = nv + 2
    rows = [[Fraction(0)] * size for _ in range(size)]
    rows[0][1] = rows[1][0] = Fraction(1)
    for i in range(nv):
        for j in range(nv):
            rows[i + 2][j + 2] = Fraction(g[i][j])
    return ratmat.as_matrix(rows)


@dataclass(frozen=True)
class CasimirDensity:
    kind: str          # 'mass' | 'psi' | 'rho_nu'
    index: int         # 1-based nu index for kind 'rho_nu', else 0
    description: str


@dataclass(frozen=True)
class CasimirSet:
    densities: tuple

    def __len__(self):
        return len(self.densities)


def casimirs(closure) -> CasimirSet:
    """The N Casimir invariants of a nondegenerate partially decoupled
    bracket: total mass, the psi-integral, and one rho*nu_k per
    microscopic variable."""
    names = closure.nu_names
    ginv = ratmat.inverse(ratmat.as_matrix(closure.metric.g)) if closure.nu_count else ()
    quad = []
    for i in range(closure.nu_count):
        for j in range(closure.nu_count):
            if ginv[i][j]:
                quad.append(f"{ginv[i][j]}*{names[i]}*{names[j]}")
    psi_desc = "u - (rho/2)*(" + (" + ".join(quad) if quad else "0") + ")"
    dens = [CasimirDensity("mass", 0, "rho"),
            CasimirDensity("psi", 0, psi_desc)]
    for k in range(1, closure.nu_count + 1):
        dens.append(CasimirDensity("rho_nu", k, f"rho*{names[k - 1]}"))
    return CasimirSet(tuple(dens))
