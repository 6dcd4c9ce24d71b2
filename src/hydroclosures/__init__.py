"""Exact Hamiltonian fluid closures for the 1D Vlasov-Poisson system.

Sparse multivariate polynomial algebra over the rationals, moment
hierarchy conversions, the known closure families in normal variables,
symbolic verification of the hydrodynamic bracket identities, and a
conservative periodic fluid solver with a multi-stream kinetic oracle.
"""

from .bracket import (HydroBracket, casimirs, check_flatness, full_metric,
                      km_bracket, signature, transform)
from .closures import (BurbyClosure, ClosureFamily, ColdClosure,
                       FourFieldClosure, GenericClosure, Metric,
                       MultiDeltaClosure, WaterbagClosure, burby_invert,
                       burby_mu, burby_mu_closed, equation_of_state,
                       fourfield_family, generate_closure_from_mu2,
                       multidelta_inverse_map, multidelta_mu,
                       multidelta_normal_map, newton_invert, quadratic_mu1,
                       waterbag_gamma_rule, waterbag_inverse_map,
                       waterbag_metric, waterbag_mu, waterbag_normal_map,
                       waterbag_s)
from .moments import (CenteredMoments, DensityError, alpha_beta_in_mu,
                      gamma_n, mu_from_p, p_from_mu, p_from_s, s_from_mu,
                      s_from_p)
from .poly import MultiPoly, RatFunc
from .sim import (DiagnosticRecord, FieldState, Grid, RunResult,
                  SimulationError, StreamState, WaveBreakError, cfl_dt,
                  diagnostics, hamiltonian, poisson_solve, run_fluid,
                  single_mode_state, step, step_split, step_streams,
                  two_stream_state, write_diagnostics_csv, write_snapshot)

__version__ = "1.0.0"

__all__ = [
    "MultiPoly", "RatFunc",
    "CenteredMoments", "DensityError", "s_from_p", "p_from_s", "mu_from_p",
    "p_from_mu", "s_from_mu", "gamma_n", "alpha_beta_in_mu",
    "HydroBracket", "km_bracket", "transform", "check_flatness", "signature",
    "full_metric", "casimirs",
    "Metric", "ClosureFamily", "MultiDeltaClosure", "WaterbagClosure",
    "BurbyClosure", "FourFieldClosure", "GenericClosure", "ColdClosure",
    "multidelta_mu", "multidelta_normal_map", "multidelta_inverse_map",
    "waterbag_mu", "waterbag_s", "waterbag_metric", "waterbag_normal_map",
    "waterbag_inverse_map", "waterbag_gamma_rule",
    "burby_mu", "burby_mu_closed", "burby_invert", "quadratic_mu1",
    "generate_closure_from_mu2", "newton_invert", "equation_of_state",
    "fourfield_family",
    "Grid", "FieldState", "StreamState", "DiagnosticRecord", "RunResult",
    "SimulationError", "WaveBreakError", "poisson_solve", "hamiltonian",
    "diagnostics", "cfl_dt", "step", "step_split", "step_streams",
    "run_fluid", "single_mode_state", "two_stream_state",
    "write_diagnostics_csv", "write_snapshot",
]
