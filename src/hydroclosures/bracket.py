"""Symbolic hydrodynamic brackets: verification of the flatness identities.

A hydrodynamic bracket is given by its coefficient data only: the
symmetric matrix alpha and the derivative-coefficient tensor beta
(beta_nm = sum_k beta_nmk * d_x u_k), whose entries the formulas of
`moments` give. Entries are exact MultiPoly in a canonical form, so
every identity check is one equality of two polynomials.

The Jacobi identity is certified through flatness: a closure whose
normal-variable parameterization satisfies the algebraic identities
checked by `check_flatness` has a bracket congruent to one with constant
metric, which satisfies Jacobi automatically. Antisymmetry needs no check:
the entry formulas of `moments` give it for any mu_n. The same
product-rule lemma settles the mirrored and diagonal flatness cells once
the independent ones hold, so only those are computed (see
`check_flatness`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .moments import mu_alpha_entry, mu_beta_entry


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

    for n, m = 1..size (default: the closure's `flatness_size`).
    Identity (b) is the chain-rule expansion of the derivative equation:
    only the first gradient factor carries the x-derivative.

    This is the one list of the bracket cells. It reads the closure only
    through `grad_pair(n, m)` and `hessian_pair(n, m)` (the left sides of
    (a) and (b), the latter as a tuple over k), `grad(n)` (for the number
    of k), what the entry formulas of `moments` read and `nu_names`, which
    a `ClosureFamily` and the formal ring of the waterbag certificate both
    supply.

    A computed cell is one comparison of its left side with its entry, in
    canonical form, and its residual is formed only when it fails. The
    independent cells, (a) for n <= m and (b) for n < m, are always
    computed. The product-rule lemma of docs/waterbag_certificate.md
    settles the others: (b) at (m, n; k) passes when (a) at (n, m) and (b)
    at (n, m; k) do, and (b) at (n, n; k) when (a) at (n, n) does. Such a
    cell is reported as passed when its premise holds; when it fails, the
    cell is computed from `hessian_pair(m, n)`, built once for the pair.
    So the report is the same, cell for cell, as that of computing every
    cell.

    A `ClosureFamily` whose mu_n are those of its own `mu`, mu_1 =
    (1/2) nu . g^-1 nu and mu_n for n >= 3 by the recurrence, satisfies
    (a) and (b) at n = 1 and (a) at n = 2 for every mu_2, flat or not
    (docs/waterbag_certificate.md, "Cells the recurrence proves"), and so
    their mirrors by the lemma: for such a closure these cells pass without
    being computed, and at n = 2 only (b) for m > 2 is built. Any other
    object, such as the certificate's formal ring or a subclass that
    overrides `mu`, has every independent cell computed.
    """
    from .closures import ClosureFamily  # closures imports this module
    if size is None:
        size = closure.flatness_size
    proven = isinstance(closure, ClosureFamily) and type(closure).mu is ClosureFamily.mu
    checks = []

    def cell(name, lhs, entry):
        ok = lhs == entry
        checks.append(FlatnessCheck(
            name=name, ok=ok, residual="" if ok else (lhs - entry).to_text(closure.nu_names)))
        return ok

    def passed(name):
        checks.append(FlatnessCheck(name=name, ok=True))
        return True

    for n in range(1, size + 1):
        ks = range(len(closure.grad(n)))
        for m in range(n, size + 1):
            name = f"alpha[{n},{m}]"
            if proven and n <= 2:
                alpha_ok = passed(name)
            else:
                alpha_ok = cell(name, closure.grad_pair(n, m), mu_alpha_entry(closure, n, m))
            if n == m:
                implied = [alpha_ok] * len(ks)
            elif proven and n == 1:
                implied = [passed(f"beta[{n},{m};{k + 1}]") for k in ks]
            else:  # the cell before alpha_ok: an independent cell is always computed
                implied = [cell(f"beta[{n},{m};{k + 1}]", lhs, mu_beta_entry(closure, n, m, k))
                           and alpha_ok for k, lhs in enumerate(closure.hessian_pair(n, m))]
            lhs_b = None if all(implied) else closure.hessian_pair(m, n)
            for k, ok in enumerate(implied):
                name = f"beta[{m},{n};{k + 1}]"
                if ok:
                    passed(name)
                else:
                    cell(name, lhs_b[k], mu_beta_entry(closure, m, n, k))
    return FlatnessReport(checks=checks)


# ---------------------------------------------------------------------------
# Casimir bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CasimirDensity:
    kind: str          # 'mass' | 'psi' | 'rho_nu'
    description: str


def casimirs(closure) -> tuple[CasimirDensity, ...]:
    """The N Casimir invariants of a nondegenerate partially decoupled
    bracket: total mass, the psi-integral, and one rho*nu_k per
    microscopic variable."""
    names = closure.nu_names
    ginv = closure.metric.inverse()
    quad = []
    for i in range(closure.nu_count):
        for j in range(closure.nu_count):
            if ginv[i][j]:
                quad.append(f"{ginv[i][j]}*{names[i]}*{names[j]}")
    psi_desc = "u - (rho/2)*(" + (" + ".join(quad) if quad else "0") + ")"
    return (CasimirDensity("mass", "rho"), CasimirDensity("psi", psi_desc),
            *(CasimirDensity("rho_nu", f"rho*{name}") for name in names))
