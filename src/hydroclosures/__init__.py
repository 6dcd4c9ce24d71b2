"""Exact Hamiltonian fluid closures for the 1D Vlasov-Poisson system.

Sparse multivariate polynomial algebra over the rationals, moment
hierarchy conversions, the known closure families in normal variables,
symbolic verification of the hydrodynamic bracket identities, and a
conservative periodic fluid solver with a multi-stream kinetic oracle.

The exact engine (`poly`, `moments`, `closures`, `bracket`) is imported
with the package and needs no numpy. The solver names (`Grid`,
`run_fluid`, ...) come from `sim`, which imports numpy; it is loaded on
first access to one of them, so exact work never pays for numpy.
"""

from .bracket import casimirs, check_flatness
from .closures import (BurbyClosure, ClosureFamily, ColdClosure,
                       FourFieldClosure, GenericClosure, Metric,
                       MultiDeltaClosure, WaterbagClosure, burby_mu,
                       equation_of_state, multidelta_normal_map)
from .moments import DensityError, p_from_mu
from .poly import MultiPoly

__version__ = "1.0.0"

# the solver names `sim` serves; `__getattr__` imports it on first use (PEP 562)
_SIM_NAMES = (
    "Grid", "FieldState", "SimulationError", "WaveBreakError",
    "diagnostics", "step", "step_streams", "run_fluid", "single_mode_state",
    "two_stream_state", "write_diagnostics_csv", "write_snapshot",
)

__all__ = [
    "MultiPoly",
    "DensityError", "p_from_mu",
    "check_flatness", "casimirs",
    "Metric", "ClosureFamily", "MultiDeltaClosure", "WaterbagClosure",
    "BurbyClosure", "FourFieldClosure", "GenericClosure", "ColdClosure",
    "multidelta_normal_map", "burby_mu", "equation_of_state",
    *_SIM_NAMES,
]


def __getattr__(name):
    if name in _SIM_NAMES:
        from . import sim
        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
