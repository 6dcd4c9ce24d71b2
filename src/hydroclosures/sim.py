"""Conservative 1D periodic solver for the closed fluid system and the
multi-stream kinetic reference model.

Fields live on a uniform periodic grid. Spatial derivatives are
pseudo-spectral with a 2/3 dealiasing mask (default) or 2nd-order central
differences. The electric field comes from the spectral Poisson solve
with a neutralizing background and zero-mean gauge. Each `Grid` builds its
spectral operators (wavenumbers, i*k, the dealiasing cut and k^2) once, on
first use, and one transform, `Grid._spectral`, takes every spectral
derivative and field solve on it. Derivatives of several fields are taken
in one batched call. The stream model adds E after its derivative, so its
field is one more row of that call; the fluid model's cannot be, as phi
enters dH/drho before dH/drho is differentiated.
A state is one float64 block: a fluid state the N = nv + 2 rows rho, u,
nu_1..nu_nv, a stream state the 2M rows a_k, v_k; its fields are views of
it. At small nx a step costs numpy calls, not arithmetic, so the rk4
updates and the state check run once on the block, not once per field.
A run (`run_fluid`, the CLI's `compare`) makes one `Workspace` and hands it
to every step. It holds the full-grid temporaries of a step, so that a long
run does not fault their pages in again on every stage: the rk4 stage
state, the one rate buffer that stages 2 to 4 share, the batched-derivative
input, which takes its own derivative, the field solve's row, the complex
spectra and the split scheme's 2 nv + 14 rows; for rk4 that is 6 N - 2
rows. The rate block of stage 1 takes the rk4 update in place: it is the
fresh block of the state a step returns. A call given no workspace
allocates each temporary where it is used. `run_fluid` keeps no reference
to its start past step 1, so a caller that hands over its only one (as
`simulate` does) frees the start then. The split scheme's micro flow a
computes what rho and psi fix (rho^2/2, the zero rows of dH/dm) once per
flow, and evaluates dH/dm_k only for the k with Tinv[a, k] != 0, the rows
its own derivative reads.

Two time steppers:

  * rk4: classical four-stage step on the full right-hand side in the
    working variables (rho, u, nu_k).
  * split: Strang composition in the flat extensive variables
    (rho, psi = u - rho*mu_1, m_k = rho*nu_k).  The microscopic block is
    diagonalized by an exact congruence of the metric, giving one
    flux-form sub-flow per diagonal entry; each sub-flow conserves its
    own integral to round-off, so the Casimirs integral(rho*nu_k) are
    preserved far better than the scheme's formal order.

Energies and Casimirs are diagnosed with the uniform-grid quadrature
sum(f)*dx, which is exact for trigonometric polynomials.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .closures import ClosureFamily
from .poly import require_integer

RHO_FLOOR = 1e-12
WAVE_BREAK_SLOPE = -1e3


class SimulationError(RuntimeError):
    pass


class WaveBreakError(SimulationError):
    """Raised when a stream velocity develops a near-vertical gradient."""


# ---------------------------------------------------------------------------
# Grid and states
# ---------------------------------------------------------------------------


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Workspace:
    """The full-grid scratch buffers of one run, made on first use and
    reused by every later step.

    A buffer is found by its name, shape and dtype (as the caller spells
    it), so steppers of different sizes can share a workspace (`compare`
    runs its fluid and its stream stepper on one). A step reads nothing
    that an earlier step left here. Not thread-safe: calls that run at the
    same time must not share one. The buffers live here, never on the
    shared `Grid` or closure tables."""

    def __init__(self):
        self._bufs: dict = {}

    def buf(self, name: str | tuple, shape: tuple, dtype=float) -> np.ndarray:
        """The buffer `name` of `shape`, made (uninitialized) on first use."""
        key = (name, shape, dtype)
        a = self._bufs.get(key)
        if a is None:
            a = self._bufs[key] = np.empty(shape, dtype)
        return a


class _FreshBuffers(Workspace):
    """The workspace of a call given none: every buffer is a new array."""

    def buf(self, name: str | tuple, shape: tuple, dtype=float) -> np.ndarray:
        return np.empty(shape, dtype)


_FRESH = _FreshBuffers()


@dataclass(frozen=True)
class Grid:
    L: float
    nx: int
    method: str = "spectral"  # or "fd2"

    def __post_init__(self):
        if not 0 < self.L < math.inf:  # NaN fails the comparison too
            raise ValueError(f"domain length L must be finite and > 0, got {self.L}")
        if require_integer("grid nx", self.nx) < 8:
            raise ValueError("need at least 8 cells")
        if self.method not in ("spectral", "fd2"):
            raise ValueError("method must be 'spectral' or 'fd2'")

    @property
    def dx(self) -> float:
        return self.L / self.nx

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.dx

    # Spectral operators, computed once per grid (cached_property writes
    # the instance __dict__ directly, so it works on the frozen dataclass).
    # They are read-only because every caller shares them.

    @cached_property
    def k(self) -> np.ndarray:
        return _frozen(2.0 * np.pi * np.fft.rfftfreq(self.nx, d=self.dx))

    @cached_property
    def ik(self) -> np.ndarray:
        """i*k, the spectral d/dx."""
        return _frozen(1j * self.k)

    @cached_property
    def k2(self) -> np.ndarray:
        """k^2 without the zero mode, the spectral -d^2/dx^2."""
        return _frozen(self.k[1:] ** 2)

    @cached_property
    def mode(self) -> np.ndarray:
        """cos(2 pi x / L), the one cosine mode every start perturbs with."""
        return _frozen(np.cos(2.0 * np.pi * self.x / self.L))

    @cached_property
    def cut(self) -> int:
        """Last wavenumber index kept by the 2/3 dealiasing rule."""
        return int((2.0 / 3.0) * (self.nx // 2))

    def deriv(self, f: np.ndarray, *, out: np.ndarray | None = None,
              work: Workspace = _FRESH, field_op: np.ndarray | None = None) -> np.ndarray:
        """d/dx along the last axis, with 2/3 dealiasing (spectral) or
        central differences; a 2-D `f` is differentiated row by row.

        Given `field_op`, the last row of a 2-D `f` is a neutral source
        instead, and the last row of the result its field (`_spectral`),
        which fd2 takes alone through the transform. The result goes to
        `out` (a fresh array if None), which may be `f` itself, and the
        spectrum to `work`. In place, fd2 takes its two edge columns before
        the interior overwrites them, and numpy buffers the interior's
        overlapping operand: the same differences, bit for bit."""
        if self.method == "spectral":
            return self._spectral(f, out, work, field_op)
        df = np.empty_like(f) if out is None else out
        g, d = (f, df) if field_op is None else (f[:-1], df[:-1])
        edges = np.subtract(g[..., 1::-1], g[..., :-3:-1])  # g_1 - g_-1, g_0 - g_-2
        np.subtract(g[..., 2:], g[..., :-2], out=d[..., 1:-1])
        d[..., ::self.nx - 1] = edges  # the first and the last column
        d /= 2 * self.dx
        if field_op is not None:
            self._spectral(f[-1:], df[-1:], work, field_op)
        return df

    def _spectral(self, f: np.ndarray, out: np.ndarray | None = None,
                  work: Workspace = _FRESH, field_op: np.ndarray | None = None) -> np.ndarray:
        """The grid's one spectral transform: the rfft of the rows of `f`
        into `work`'s spectrum buffer, each derivative row's kept band times
        i*k and the rest zeroed, and the irfft into `out`. Given `field_op`
        (on the nonzero wavenumbers), the last row of a 2-D `f` is a neutral
        source s and becomes its zero-mean field, of spectrum rfft(s) /
        field_op. Each row is transformed on its own, so its bits do not
        depend on the batch."""
        fh = np.fft.rfft(f, axis=-1, out=work.buf(
            "spectrum", f.shape[:-1] + (self.nx // 2 + 1,), complex))
        dh = fh
        if field_op is not None:
            dh, field = fh[:-1], fh[-1]
            field[0] = 0.0
            field[1:] /= field_op
        if len(dh):  # a field solve alone has no derivative row
            cut = self.cut + 1
            dh[..., :cut] *= self.ik[:cut]
            dh[..., cut:] = 0.0
        return np.fft.irfft(fh, n=self.nx, axis=-1, out=out)

    def integral(self, f: np.ndarray) -> float:
        return float(f.sum(axis=-1) * self.dx)


@dataclass
class _BlockState:
    """One float64 (rows, nx) block at time t, with background density n0. An
    integer or narrower float block is converted; any other dtype, a block
    not 2-D or one of under 2 rows is refused."""
    block: np.ndarray
    n0: float
    t: float = 0.0

    def __post_init__(self):
        a, kind = np.asarray(self.block), type(self).__name__
        if not np.can_cast(a.dtype, np.float64):
            raise ValueError(f"a {kind} block needs a real dtype, got dtype {a.dtype}")
        if a.ndim != 2 or len(a) < 2:
            raise ValueError(f"a {kind} block needs shape (rows >= 2, nx), got {a.shape}")
        self.block = a.astype(np.float64, copy=False)


class FieldState(_BlockState):
    """A fluid state: the N rows rho, u, nu_1..nu_{N-2}, viewed as `rho`, `u`, `nu`."""
    rho = property(lambda self: self.block[0])
    u = property(lambda self: self.block[1])
    nu = property(lambda self: self.block[2:])


class StreamState(_BlockState):
    """M cold streams: 2M rows, the densities `a`, then the velocities `v`."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.block) % 2:
            raise ValueError(f"a StreamState block needs 2M rows, got {len(self.block)}")

    a = property(lambda self: self.block[:len(self.block) // 2])
    v = property(lambda self: self.block[len(self.block) // 2:])


@dataclass(frozen=True)
class DiagnosticRecord:
    t: float
    H: float
    C_mass: float
    C_psi: float
    C_nu: tuple
    momentum: float
    field_energy: float

    def row(self) -> list:
        return [self.t, self.H, self.C_mass, self.C_psi,
                *self.C_nu, self.momentum, self.field_energy]


# ---------------------------------------------------------------------------
# Electric field
# ---------------------------------------------------------------------------


def _neutral_source(rho: np.ndarray, n0: float, out: np.ndarray | None = None) -> np.ndarray:
    """rho - n0, once neutrality mean(rho) = n0 holds to 1e-10 relative to
    n0 (otherwise no periodic field exists)."""
    if abs(float(rho.sum()) / rho.size - n0) > 1e-10 * n0:
        raise SimulationError("neutrality violated: mean(rho) != n0")
    return np.subtract(rho, n0, out=out)


def poisson_solve(rho: np.ndarray, n0: float, grid: Grid) -> np.ndarray:
    """E with dE/dx = rho - n0, periodic, zero mean."""
    return grid._spectral(_neutral_source(rho, n0)[None], field_op=grid.ik[1:])[0]


def electric_potential(rho: np.ndarray, n0: float, grid: Grid,
                       work: Workspace = _FRESH) -> np.ndarray:
    """phi with d^2phi/dx^2 = -(rho - n0), E = -dphi/dx, zero mean: the row
    of `work`'s buffer "field", where the transform overwrites its source,
    valid until the next call."""
    src = _neutral_source(rho, n0, out=work.buf("field", (1, grid.nx)))
    return grid._spectral(src, src, work, field_op=grid.k2)[0]


# ---------------------------------------------------------------------------
# Compiled closure evaluation
# ---------------------------------------------------------------------------


class _ClosureTables:
    """Per-closure float evaluators for mu_1, mu_2, gamma_2 and the
    gradients of mu_1 and mu_2 from `closure.float_eval`, kept in the
    closure's memo by `closure.derived`; they hold no reference back to it."""

    def __init__(self, closure: ClosureFamily):
        self.nv = nv = closure.nu_count
        # g and the split scheme's frame: the metric's one exact congruence
        # T^t g T = diag(d), and T^-1
        m = closure.metric
        self.g, self.T, self.Tinv = (
            np.array([[float(x) for x in row] for row in a], dtype=float).reshape(nv, nv)
            for a in (m.g, m.T, m.Tinv))
        self.D = np.array([float(x) for x in m.d])
        self.mu1, self.mu2 = closure.float_eval("mu", 1), closure.float_eval("mu", 2)
        self.dmu1, self.dmu2 = closure.float_eval("grad", 1), closure.float_eval("grad", 2)
        self.gamma2 = closure.float_eval("gamma", 2)
        # per Tinv row a: the columns k that micro flow a reads from dH/dm,
        # and those it zeroes
        self.live = [np.flatnonzero(row).tolist() for row in self.Tinv]
        self.dead = [np.flatnonzero(row == 0.0) for row in self.Tinv]


def _tables(state: FieldState, closure: ClosureFamily) -> _ClosureTables:
    """The closure's tables, once `state` has the closure's N rows."""
    rows = len(state.block)
    if rows != closure.N:
        raise ValueError(f"the state has {rows} rows, but {closure.name} needs N = {closure.N}")
    return closure.derived(_ClosureTables)


def _check_state(state: FieldState):
    # a quick pass: a NaN in rho makes min(rho) NaN, and a NaN or inf
    # anywhere makes the block's sum non-finite. The sum is a numpy
    # reduction, not a BLAS dot, which may spread a large grid over
    # threads. A sum of finite values can overflow (numpy warns then), so
    # when the quick pass fails, the exact tests below decide.
    if state.rho.min() >= RHO_FLOOR and math.isfinite(state.block.sum()):
        return
    if np.any(state.rho < RHO_FLOOR):
        raise SimulationError(f"density fell below {RHO_FLOOR} at t={state.t}")
    if not np.isfinite(state.block).all():
        raise SimulationError(f"non-finite field values at t={state.t}")


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------


def rhs_fluid(state: FieldState, closure: ClosureFamily, grid: Grid, *,
              work: Workspace = _FRESH, out: np.ndarray | None = None):
    """(drho/dt, du/dt, dnu/dt) for the closed fluid system.

      drho/dt = -d_x(rho u)
      du/dt   = -d_x(dH/drho) + (1/rho) sum_k (dH/dnu_k) d_x nu_k
      dnu_k/dt = -u d_x nu_k - (1/rho) d_x( g_kl (dH/dnu_l) / rho )

    with dH/drho = u^2/2 + (3/2) rho^2 (mu_2 - mu_1^2) + phi and
    dH/dnu_l = (1/2) rho^3 (dmu_2/dnu_l - 2 mu_1 dmu_1/dnu_l).

    The three rates are the rows of `out` (fresh if None), a (2 + nv, nx)
    array; the temporaries are buffers of `work`. The batched derivative's
    2 + 2 nv input rows take their own derivative in place, and the rates
    are formed from them in `out`.
    """
    tab = _tables(state, closure)
    _check_state(state)
    rho, u, nu = state.rho, state.u, state.nu
    nv, nx = tab.nv, grid.nx
    nuv = list(nu)
    mu1 = tab.mu1(nuv)
    out = np.empty((2 + nv, nx)) if out is None else out
    # the batched derivative input: rho u, dH/drho, the nu_k and the fluxes
    # g_kl (dH/dnu_l) / rho, each written in place
    X = work.buf("rhs.X", (2 + 2 * nv, nx))
    rho_u, dH_drho, fluxes = X[0], X[1], X[2 + nv:]
    # the field solve's row, scratch before phi is solved in it and after
    # phi is added
    tmp = work.buf("field", (1, nx))[0]
    np.multiply(rho, u, out=rho_u)
    np.square(rho, out=tmp)
    tmp *= 1.5
    # dH/drho holds mu_2 - mu_1^2 until it is written
    tmp *= np.subtract(tab.mu2(nuv), np.square(mu1, out=dH_drho), out=dH_drho)
    np.square(u, out=dH_drho)
    dH_drho *= 0.5
    dH_drho += tmp
    dH_drho += electric_potential(rho, state.n0, grid, work)
    # the rate rows are scratch until the rates are formed: (1/2) rho^3 and
    # 2 mu1 in the first two, and dH/dnu in the nu rows, whose rate is
    # written after the force has read it
    drho, du, dnu = out[0], out[1], out[2:]
    if nv:
        X[2:2 + nv] = nu
        # dH/dnu_l = (1/2 rho^3)(dmu2/dnu_l - (2 mu1) dmu1/dnu_l)
        dH_dnu, half_rho3, two_mu1 = dnu, drho, du
        np.power(rho, 3, out=half_rho3)
        half_rho3 *= 0.5
        np.multiply(2.0, mu1, out=two_mu1)
        del mu1  # a full row, not held through the evaluations below
        for l in range(nv):
            np.multiply(two_mu1, tab.dmu1[l](nuv), out=tmp)
            np.subtract(tab.dmu2[l](nuv), tmp, out=dH_dnu[l])
        dH_dnu *= half_rho3
        for k in range(nv):
            np.einsum("l,lx->x", tab.g[k], dH_dnu, out=fluxes[k])
        fluxes /= rho
    # X becomes d_x X, from which the rates are formed
    grid.deriv(X, out=X, work=work)
    dxnu, dflux = X[2:2 + nv], X[2 + nv:]
    np.negative(X[:2], out=out[:2])
    if nv:
        dH_dnu *= dxnu
        force = np.add.reduce(dH_dnu, axis=0, out=tmp)
        force /= rho
        du += force
        np.multiply(dxnu, np.negative(u, out=tmp), out=dnu)
        dflux /= rho
        dnu -= dflux
    return drho, du, dnu


def rhs_streams(state: StreamState, grid: Grid, *, work: Workspace = _FRESH,
                out: np.ndarray | None = None):
    """(da/dt, dv/dt) for M cold streams sharing the electric field:
    da_k/dt = -d_x(a_k v_k), dv_k/dt = -v_k d_x v_k + E.

    The two rates are the first 2M rows of `out` (fresh if None), of shape
    (2M + 1, nx), and E is its last row. The derivative of the rows
    (a_k v_k, v_k) and the field of rho - n0 are one batched call, as E
    is added only after the derivative. The temporaries are buffers of
    `work`."""
    a, v = state.a, state.v
    M = len(a)
    X = work.buf("streams.X", (2 * M + 1, grid.nx))
    av, vv, src = X[:M], X[M:2 * M], X[2 * M]
    np.multiply(a, v, out=av)
    vv[...] = v
    _neutral_source(np.add.reduce(a, axis=0, out=src), state.n0, out=src)
    d = grid.deriv(X, out=out, work=work, field_op=grid.ik[1:])
    d_av, d_v, E = d[:M], d[M:2 * M], d[2 * M]
    np.negative(d_av, out=d_av)
    d_v *= np.negative(v, out=vv)  # X is free once differentiated
    d_v += E
    return d_av, d_v


def check_wave_breaking(state: StreamState, grid: Grid):
    """Raise once any stream velocity steepens beyond the breaking slope."""
    slope = grid.deriv(state.v)
    worst = float(np.min(slope))
    if worst < WAVE_BREAK_SLOPE:
        raise WaveBreakError(f"wave breaking: min d_x v = {worst:.3g} at t={state.t}")


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def diagnostics(state: FieldState, closure: ClosureFamily, grid: Grid) -> DiagnosticRecord:
    """The record of `state`, with the energy
    H = (1/2) integral [rho u^2 + rho^3 (mu_2 - mu_1^2) + E^2] dx."""
    tab = _tables(state, closure)
    rho, u, nu = state.rho, state.u, state.nu
    nuv = list(nu)
    mu1 = tab.mu1(nuv)
    E = poisson_solve(rho, state.n0, grid)
    psi = u - rho * mu1
    dens = rho * u ** 2 + rho ** 3 * (tab.mu2(nuv) - mu1 ** 2) + E ** 2
    return DiagnosticRecord(
        t=state.t,
        H=0.5 * grid.integral(dens),
        C_mass=grid.integral(rho),
        C_psi=grid.integral(psi),
        C_nu=tuple(grid.integral(rho * nu_k) for nu_k in nu),
        momentum=grid.integral(rho * u),
        field_energy=0.5 * grid.integral(E ** 2),
    )


def cfl_dt(state: FieldState, closure: ClosureFamily, grid: Grid) -> float:
    """Time-step bound 0.4 dx / max|u +- c| with the thermal-speed estimate
    c^2 = 3 rho^2 (mu_2 - mu_1^2), capped by 0.4 / omega_p."""
    tab = _tables(state, closure)
    nuv = list(state.nu)
    s2 = tab.mu2(nuv) - tab.mu1(nuv) ** 2
    c = np.sqrt(np.maximum(3.0 * state.rho ** 2 * s2, 0.0))
    vmax = float((np.abs(state.u) + c).max())
    dt_adv = 0.4 * grid.dx / vmax if vmax > 0 else np.inf
    wp = np.sqrt(max(state.n0, RHO_FLOOR))
    return min(dt_adv, 0.4 / wp)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------


def _rk4(y: np.ndarray, rhs, dt: float, stage: np.ndarray,
         k: np.ndarray) -> np.ndarray:
    """One classical rk4 step of the block `y`, y + (dt/6)(a + 2b + 2c + d).

    `rhs(s, out)` writes the rate at the block `s` to the leading rows of a
    block `out` of k's shape (the stream model's has one scratch row of E
    more) and keeps no reference to `s`. Stage 1 writes a fresh block a,
    whose rows of y take the update in place and are returned. Stages 2 to 4
    share the rate buffer `k`: each of b, c and d is folded into a once the
    next stage state, h r + y in `stage`, is built. Each update is one call."""
    n = len(y)
    a = np.empty_like(k)
    a_y, k_y = a[:n], k[:n]

    def at(r, h):  # the stage state y + h*r
        return np.add(np.multiply(h, r, out=stage), y, out=stage)

    rhs(y, a)
    rhs(at(a_y, 0.5 * dt), k)  # b
    for h in (0.5 * dt, dt):  # c, then d
        at(k_y, h)
        k_y *= 2  # a += 2 k, before k is overwritten
        a_y += k_y
        rhs(stage, k)
    a_y += k_y
    a_y *= dt / 6.0
    a_y += y
    return a_y


def step_rk4(state: FieldState, closure: ClosureFamily, grid: Grid,
             dt: float, work: Workspace = _FRESH) -> FieldState:
    def rhs(s, out):
        rhs_fluid(FieldState(s, state.n0, state.t), closure, grid, work=work, out=out)

    # the state's rows, which are rhs_fluid's rate rows too
    shape = state.block.shape
    new = FieldState(_rk4(state.block, rhs, dt, work.buf(("rk4", "stage"), shape),
                          work.buf(("rk4", "k"), shape)), state.n0, state.t + dt)
    _check_state(new)
    return new


def step_streams(state: StreamState, grid: Grid, dt: float,
                 work: Workspace = _FRESH) -> StreamState:
    if not 0 < dt < math.inf:  # NaN fails the test too
        raise ValueError(f"dt must be finite and > 0, got {dt}")

    def rhs(s, out):
        rhs_streams(StreamState(s, state.n0, state.t), grid, work=work, out=out)

    # the rows of a and v, then rhs_streams' row of E
    rows, nx = state.block.shape
    new = StreamState(_rk4(state.block, rhs, dt, work.buf(("rk4", "stage"), (rows, nx)),
                           work.buf(("rk4", "k"), (rows + 1, nx))),
                      state.n0, state.t + dt)
    if not np.isfinite(new.block).all():
        raise SimulationError(f"non-finite stream values at t={new.t}")
    return new


def _split_pack(state: FieldState, tab: _ClosureTables, work: _SplitWork) -> np.ndarray:
    """(rho, u, nu) -> the step's one fresh block of the flat extensive
    variables, rows rho, psi and mtil, built in place through `work`."""
    packed = state.block.copy()
    rho, psi, nu = packed[0], packed[1], packed[2:]
    psi -= np.multiply(rho, tab.mu1(list(nu)), out=work.tmp)
    np.matmul(tab.T.T, np.multiply(rho, nu, out=work.nu), out=nu)
    return packed


def _split_unpack(packed: np.ndarray, tab: _ClosureTables, n0, t, work: _SplitWork) -> FieldState:
    """The state of the flat variables `packed`, built in place: nu in the
    mtil rows, through `work.nu`, and u in psi."""
    rho, psi, nu = packed[0], packed[1], packed[2:]
    nu[...] = np.matmul(tab.Tinv.T, nu, out=work.nu)
    nu /= rho
    psi += np.multiply(rho, tab.mu1(list(nu)), out=work.tmp)
    return FieldState(packed, n0, t)


class _SplitWork:
    """The full-grid buffers of one split step, 2 nv + 7 rows of the
    workspace `ws`, filled in place by every stage of every sub-flow. The
    macro flow's field solve takes its row and spectrum from `ws` too."""

    def __init__(self, nv: int, nx: int, ws: Workspace = _FRESH):
        self.ws = ws
        buf = ws.buf
        self.nu = buf("split.nu", (nv, nx))           # the stage's nu, then Tinv dH/dm
        self.nuv = list(self.nu)                      # its rows, as the evaluators take them
        self.u, self.two_mu1, self.half_rho2, self.tmp = buf("split.rows", (4, nx))
        # a micro flow's start row, which the macro flow's field solve takes
        self.base = buf("field", (1, nx))[0]
        self.dH_m = buf("split.dH_m", (nv, nx))
        self.dH_flat = buf("split.dH_flat", (2, nx))  # (dH/dpsi = rho u, dH/drho)

    def begin_micro(self, rho, tab: _ClosureTables, a: int):
        """Fill what micro flow a holds fixed, as rho and psi do not move
        in it: rho^2/2, and zero in the rows of dH/dm that Tinv[a] does
        not read."""
        np.square(rho, out=self.half_rho2)
        self.half_rho2 *= 0.5
        self.dH_m[tab.dead[a]] = 0.0


def _split_derivs(rho, psi, mtil, tab: _ClosureTables, n0, grid: Grid,
                  work: _SplitWork, micro: int | None = None) -> np.ndarray:
    """Functional derivatives of H in the flat variables: the rows
    (dH/dpsi, dH/drho) that drive the macro flow, or with `micro` = a the
    row dH/dmtil_a = (Tinv dH/dm)_a that drives micro flow a.

      dH/dpsi = rho u
      dH/drho|psi,m = u^2/2 - rho u mu1 + (rho^2/2)(gamma_2 + mu_1^2) + phi
      dH/dm_k = rho u dmu1/dnu_k + (rho^2/2)(dmu2/dnu_k - 2 mu1 dmu1/dnu_k)

    The result is a view of `work` (a micro row is a row of `work.nu`), valid
    until the next call. A micro row needs `work.begin_micro(rho, tab, a)`
    first, once per flow; it evaluates dH/dm_k only where Tinv[a, k] != 0,
    and takes the full product Tinv @ dH/dm: row a alone may round differently.
    """
    np.matmul(tab.Tinv.T, mtil, out=work.nu)
    work.nu /= rho
    nuv = work.nuv
    mu1 = tab.mu1(nuv)
    u = np.multiply(rho, mu1, out=work.u)
    u += psi
    rho_u, dH_rho = work.dH_flat
    np.multiply(rho, u, out=rho_u)
    half_rho2, tmp = work.half_rho2, work.tmp
    if micro is not None:
        two_mu1 = np.multiply(2.0, mu1, out=work.two_mu1)
        del mu1  # a full row, not held through the evaluations below
        for k in tab.live[micro]:
            row = work.dH_m[k]
            dmu1 = tab.dmu1[k](nuv)
            np.multiply(rho_u, dmu1, out=row)
            np.multiply(two_mu1, dmu1, out=tmp)
            np.subtract(tab.dmu2[k](nuv), tmp, out=tmp)
            tmp *= half_rho2
            row += tmp
        return np.matmul(tab.Tinv, work.dH_m, out=work.nu)[micro]
    np.square(rho, out=half_rho2)
    half_rho2 *= 0.5
    phi = electric_potential(rho, n0, grid, work.ws)
    np.square(u, out=dH_rho)
    dH_rho *= 0.5
    dH_rho -= np.multiply(rho_u, mu1, out=tmp)
    np.square(mu1, out=tmp)
    np.add(tab.gamma2(nuv), tmp, out=tmp)
    tmp *= half_rho2
    dH_rho += tmp
    dH_rho += phi
    return work.dH_flat


def step_split(state: FieldState, closure: ClosureFamily, grid: Grid,
               dt: float, work: Workspace = _FRESH) -> FieldState:
    """Strang splitting in the flat variables.

    Sub-flows (each one rk4 step on its partial right-hand side):
      B  (macro): drho/dt = -d_x(dH/dpsi), dpsi/dt = -d_x(dH/drho)
      A_a (one per diagonal metric entry): dmtil_a/dt = -D_a d_x(dH/dmtil_a)
    ordered A_1..A_nv (dt/2), B (dt), A_nv..A_1 (dt/2).  Every sub-flow is
    in flux form, so each integral(mtil_a), integral(rho), integral(psi)
    telescopes to round-off. The flows advance rows of the step's one packed
    block in place; A_a keeps a copy of its start row alone.
    """
    tab = _tables(state, closure)
    nx = grid.nx
    sw = _SplitWork(tab.nv, nx, work)
    packed = _split_pack(state, tab, sw)
    rho, psi, mtil = packed[0], packed[1], packed[2:]
    # the macro flow's two rows; a micro flow takes the first
    stage = work.buf(("split", "stage"), (2, nx))
    k = work.buf(("split", "k"), (2, nx))

    def flow_micro(a: int, h: float):
        sw.base[...] = mtil[a]
        sw.begin_micro(rho, tab, a)

        def rhs(s, out):
            mtil[a] = s[0]  # the packed state of the stage
            # as a one-row batch, so that it shares the field solve's spectrum buffer
            grid.deriv(_split_derivs(rho, psi, mtil, tab, state.n0, grid, sw, micro=a)[None],
                       out=out, work=work)
            out *= -tab.D[a]

        mtil[a] = _rk4(sw.base[None], rhs, h, stage[:1], k[:1])[0]

    def flow_macro(h: float):
        def rhs(s, out):
            grid.deriv(_split_derivs(*s, mtil, tab, state.n0, grid, sw), out=out, work=work)
            np.negative(out, out=out)

        packed[:2] = _rk4(packed[:2], rhs, h, stage, k)

    for a in range(tab.nv):
        flow_micro(a, 0.5 * dt)
    flow_macro(dt)
    for a in range(tab.nv - 1, -1, -1):
        flow_micro(a, 0.5 * dt)

    new = _split_unpack(packed, tab, state.n0, state.t + dt, sw)
    _check_state(new)
    return new


def step(state: FieldState, closure: ClosureFamily, grid: Grid, dt: float,
         scheme: str = "rk4", work: Workspace = _FRESH) -> FieldState:
    """One step of `scheme`. A run hands the same `work` to every step; the
    returned state is always a fresh array."""
    if not 0 < dt < math.inf:  # NaN fails the test too
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    bound = cfl_dt(state, closure, grid)
    if dt > bound:
        warnings.warn(f"dt={dt} exceeds CFL estimate {bound:.3g}", stacklevel=2)
    if scheme == "rk4":
        return step_rk4(state, closure, grid, dt, work)
    if scheme == "split":
        return step_split(state, closure, grid, dt, work)
    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------


def single_mode_state(grid: Grid, closure: ClosureFamily, n0: float = 1.0,
                      eps: float = 1e-3, u0: float = 0.0,
                      nu_base=(), nu_eps=()) -> FieldState:
    """Homogeneous background with one cosine mode on rho (and optionally
    on the normal variables); the rho perturbation keeps exact neutrality.
    `nu_base` and `nu_eps` are empty (all zero) or hold one value per
    normal variable."""
    nv = closure.nu_count
    nu_base, nu_eps = list(nu_base), list(nu_eps)
    for name, values in (("nu_base", nu_base), ("nu_eps", nu_eps)):
        if values and len(values) != nv:
            raise ValueError(f"{name} needs {nv} values for {closure.name} "
                             f"(or none), got {len(values)}")
    c = grid.mode
    block = np.empty((2 + nv, grid.nx))
    block[0], block[1] = n0 * (1.0 + eps * c), float(u0)
    for k, (base, e) in enumerate(zip(nu_base or [0.0] * nv, nu_eps or [0.0] * nv)):
        block[2 + k] = base + e * c
    return FieldState(block, n0)


def two_stream_state(grid: Grid, n0: float = 1.0, v0: float = 0.5,
                     eps: float = 1e-3) -> StreamState:
    """Two symmetric counter-propagating streams with a small density mode."""
    c = grid.mode
    return StreamState(np.array([0.5 * n0 * (1.0 + eps * c), 0.5 * n0 * (1.0 - eps * c),
                                 np.full(grid.nx, v0), np.full(grid.nx, -v0)]), n0)


# ---------------------------------------------------------------------------
# Run driver
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    records: list[DiagnosticRecord]
    final: FieldState


def step_count(scheme: str, dt: float, t_end: float, stride: int = 1) -> int:
    """The steps round(t_end / dt) >= 1 of a run, checked: a known scheme, finite
    dt > 0 and t_end (NaN fails every test), and a record every `stride` >= 1."""
    if scheme not in ("rk4", "split"):
        raise ValueError(f"integrator scheme must be 'rk4' or 'split', got {scheme!r}")
    if not (0 < dt < math.inf and 0.5 < t_end / dt < math.inf):
        raise ValueError("integrator needs a finite dt > 0 and a finite t_end > dt/2, "
                         f"got dt = {dt}, t_end = {t_end}")
    if require_integer("output stride", stride) < 1:
        raise ValueError(f"output needs stride >= 1, got stride = {stride}")
    return round(t_end / dt)


def run_fluid(state: FieldState, closure: ClosureFamily, grid: Grid,
              dt: float, t_end: float, scheme: str = "rk4",
              stride: int = 1, on_record=None) -> RunResult:
    """Advance to t_end recording diagnostics every `stride` steps. No
    reference to `state` is kept past step 1."""
    nsteps = step_count(scheme, dt, t_end, stride)
    records = [diagnostics(state, closure, grid)]
    work = Workspace()
    for i in range(nsteps):
        state = step(state, closure, grid, dt, scheme=scheme, work=work)
        if (i + 1) % stride == 0 or i == nsteps - 1:
            rec = diagnostics(state, closure, grid)
            records.append(rec)
            if on_record is not None:
                on_record(state, rec)
    return RunResult(records, state)


def write_diagnostics_csv(path, records: list[DiagnosticRecord]):
    header = ["t", "H", "C_mass", "C_psi",
              *[f"C_{k}" for k in range(1, len(records[0].C_nu) + 1)],
              "momentum", "field_energy"]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for rec in records:
            w.writerow([f"{v:.17g}" for v in rec.row()])


def write_snapshot(path, state: FieldState):
    np.savez(path, format_version=1, nx=state.rho.size, N=len(state.block), t=state.t,
             rho=state.rho, u=state.u, nu=state.nu, n0=state.n0)
