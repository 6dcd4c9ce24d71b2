"""Fluid solver, kinetic oracle, and conservation behavior."""

import contextlib
import gc
import io
import json
import math
import re
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

from hydroclosures import cli
from hydroclosures.closures import (BurbyClosure, ColdClosure,
                                    MultiDeltaClosure, WaterbagClosure,
                                    multidelta_normal_map)
from hydroclosures.moments import p_from_mu
from hydroclosures.sim import (RHO_FLOOR, FieldState, Grid, SimulationError,
                               StreamState, _check_state, _ClosureTables, _split_derivs,
                               _SplitWork,
                               WaveBreakError, Workspace, cfl_dt,
                               check_wave_breaking, diagnostics,
                               electric_potential, poisson_solve, rhs_fluid,
                               rhs_streams, run_fluid, single_mode_state, step,
                               step_count, step_streams, two_stream_state,
                               write_snapshot)

from oracles import stream_diagnostics

F = Fraction
TWO_PI = 2.0 * math.pi


def test_grid_derivative_exact_on_modes():
    grid = Grid(L=TWO_PI, nx=64)
    f = np.sin(3.0 * grid.x)
    assert np.max(np.abs(grid.deriv(f) - 3.0 * np.cos(3.0 * grid.x))) < 1e-12
    grid_fd = Grid(L=TWO_PI, nx=512, method="fd2")
    err = np.max(np.abs(grid_fd.deriv(f[: 512]
                                      if len(f) == 512 else np.sin(3.0 * grid_fd.x))
                        - 3.0 * np.cos(3.0 * grid_fd.x)))
    assert err < 1e-3


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(L=1.0, nx=4)
    with pytest.raises(ValueError):
        Grid(L=1.0, nx=64, method="upwind")
    # L = 0 divided by zero in the spectral operators, and L < 0 ran with
    # negative integrals
    for L in (0.0, -TWO_PI, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="domain length"):
            Grid(L=L, nx=64)
    # 64.5 built a 65-point x; numpy integers are integers
    for nx in (64.5, 64.0, "64", True):
        with pytest.raises(ValueError, match="nx"):
            Grid(L=TWO_PI, nx=nx)
    assert Grid(L=TWO_PI, nx=np.int64(64)).x.shape == (64,)


# run settings that `run_fluid` took without a word: a negative dt or a
# t_end below dt/2 ran no step and returned one record at t = 0, a zero dt
# or stride divided by zero, a NaN dt or an infinite t_end failed to round
# to a step count, and a stride of 1.5 recorded every third step
BAD_RUNS = {
    "negative-dt": ({"dt": -0.01}, "integrator needs a finite dt > 0"),
    "zero-dt": ({"dt": 0.0}, "integrator needs a finite dt > 0"),
    "nan-dt": ({"dt": math.nan}, "integrator needs a finite dt > 0"),
    "infinite-dt": ({"dt": math.inf}, "integrator needs a finite dt > 0"),
    "short-t_end": ({"dt": 0.01, "t_end": 0.004}, "integrator needs a finite dt > 0"),
    "negative-t_end": ({"t_end": -1.0}, "integrator needs a finite dt > 0"),
    "infinite-t_end": ({"t_end": math.inf}, "integrator needs a finite dt > 0"),
    "bogus-scheme": ({"scheme": "bogus"}, "integrator scheme must be 'rk4' or 'split'"),
    "zero-stride": ({"stride": 0}, "output needs stride >= 1, got stride = 0"),
    "fractional-stride": ({"stride": 1.5}, "output stride must be an integer, got 1.5"),
    "bool-stride": ({"stride": True}, "output stride must be an integer, got True"),
}


@pytest.mark.parametrize("case", BAD_RUNS)
def test_run_fluid_refuses_bad_settings_before_a_step(monkeypatch, case):
    import hydroclosures.sim as sim

    def no_work(*args, **kwargs):
        raise AssertionError("a bad run took a step or a record")

    grid, c = Grid(L=TWO_PI, nx=16), ColdClosure()
    state = single_mode_state(grid, c)
    monkeypatch.setattr(sim, "step", no_work)
    monkeypatch.setattr(sim, "diagnostics", no_work)
    settings, message = BAD_RUNS[case]
    run = {"dt": 0.01, "t_end": 1.0, "scheme": "rk4", "stride": 1, **settings}
    with pytest.raises(ValueError, match=re.escape(message)):
        run_fluid(state, c, grid, **run)


def test_step_count_rounds_t_end_over_dt():
    assert step_count("rk4", 0.01, 0.05) == 5
    assert step_count("split", 0.01, 0.006, stride=np.int64(3)) == 1
    assert step_count("rk4", 0.25, 1.1) == 4


# step sizes that `step` let through to a misleading "non-finite field
# values" failure (NaN; inf after a CFL warning and a numpy RuntimeWarning)
# and that `step_streams` did not check at all
@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("stepper", ["step", "step_streams"])
def test_steppers_refuse_a_dt_that_is_not_finite_and_positive(stepper, dt):
    grid, c = Grid(L=TWO_PI, nx=16), ColdClosure()
    fluid, streams = single_mode_state(grid, c), two_stream_state(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any work or warning
        with pytest.raises(ValueError, match=f"^dt must be finite and > 0, got {dt}$"):
            if stepper == "step":
                step(fluid, c, grid, dt)
            else:
                step_streams(streams, grid, dt)


def test_poisson_analytic_mode():
    grid = Grid(L=TWO_PI, nx=64)
    n0, eps = 1.0, 1e-3
    rho = n0 * (1.0 + eps * np.cos(grid.x))
    E = poisson_solve(rho, n0, grid)
    # d_x E = rho - n0  =>  E = eps n0 sin(x) for L = 2 pi
    assert np.max(np.abs(E - eps * n0 * np.sin(grid.x))) < 1e-14
    assert abs(grid.integral(E)) < 1e-14


def test_poisson_rejects_nonneutral():
    grid = Grid(L=TWO_PI, nx=64)
    with pytest.raises(SimulationError):
        poisson_solve(np.full(grid.nx, 1.5), 1.0, grid)
    # a mean twice a tiny n0: an absolute 1e-10 bound returned E = 0
    with pytest.raises(SimulationError, match="neutrality"):
        poisson_solve(np.full(grid.nx, 2e-12), 1e-12, grid)


@pytest.mark.parametrize("n0", [1e6, 1e7])
def test_neutrality_holds_at_a_large_n0(n0):
    # one ulp of 1e6 is 1.2e-10: an absolute bound failed these runs at
    # step 34 (n0 = 1e6) and step 62 (n0 = 1e7)
    grid, closure = Grid(L=TWO_PI, nx=64), ColdClosure()
    state = single_mode_state(grid, closure, n0=n0, eps=1e-3)
    for _ in range(100):
        state = step(state, closure, grid, 1e-4)
    assert abs(state.rho.mean() - n0) <= 1e-14 * n0


@pytest.mark.parametrize("method", ["spectral", "fd2"])
def test_field_solves_scale_with_the_wavenumber(method):
    # at k = 1 a division by k and one by k^2 agree; here k = 6 pi / 5
    grid = Grid(L=5.0, nx=64, method=method)
    k, eps = 2.0 * math.pi * 3 / grid.L, 1e-3
    rho = 1.0 + eps * np.cos(k * grid.x)
    E, phi = poisson_solve(rho, 1.0, grid), electric_potential(rho, 1.0, grid)
    assert np.max(np.abs(E - eps * np.sin(k * grid.x) / k)) < 1e-15
    assert np.max(np.abs(phi - eps * np.cos(k * grid.x) / k ** 2)) < 1e-15


def test_uniform_state_is_an_equilibrium():
    grid = Grid(L=TWO_PI, nx=64)
    c = BurbyClosure(2)
    state = single_mode_state(grid, c, eps=0.0, nu_base=[0.2, 0.7])
    drho, du, dnu = rhs_fluid(state, c, grid)
    assert np.max(np.abs(drho)) < 1e-14
    assert np.max(np.abs(du)) < 1e-14
    assert np.max(np.abs(dnu)) < 1e-14


def test_mass_flux_form_exact():
    # drho/dt is a pure x-derivative, so its integral vanishes identically
    grid = Grid(L=TWO_PI, nx=64)
    c = MultiDeltaClosure(2)
    state = single_mode_state(grid, c, eps=0.05, nu_base=[0.3, 0.4],
                              nu_eps=[0.01, 0.02])
    drho, du, dnu = rhs_fluid(state, c, grid)
    assert abs(grid.integral(drho)) < 1e-13


def test_cold_langmuir_conservation_and_frequency():
    grid = Grid(L=TWO_PI, nx=64)
    c = ColdClosure()
    state = single_mode_state(grid, c, n0=1.0, eps=1e-3)
    probe = []
    result = run_fluid(state, c, grid, dt=0.01, t_end=20.0, stride=1,
                       on_record=lambda s, rec: probe.append((s.t, s.rho[0] - 1.0)))
    r0, recs = result.records[0], result.records
    assert max(abs(r.H - r0.H) for r in recs) / abs(r0.H) < 1e-8
    assert max(abs(r.C_mass - r0.C_mass) for r in recs) / r0.C_mass < 1e-12
    assert max(abs(r.momentum - r0.momentum) for r in recs) < 1e-12
    # zero crossings of the density perturbation give the plasma frequency
    t = np.array([p[0] for p in probe])
    y = np.array([p[1] for p in probe])
    sign_change = np.nonzero(np.sign(y[:-1]) != np.sign(y[1:]))[0]
    zc = t[sign_change] - y[sign_change] * (t[sign_change + 1] - t[sign_change]) \
        / (y[sign_change + 1] - y[sign_change])
    omega = math.pi / float(np.mean(np.diff(zc)))
    assert abs(omega - 1.0) < 0.01


def test_multidelta_single_stream_matches_cold():
    grid = Grid(L=TWO_PI, nx=64)
    cold, md1 = ColdClosure(), MultiDeltaClosure(1)
    s1 = single_mode_state(grid, cold, eps=1e-3)
    s2 = single_mode_state(grid, md1, eps=1e-3)
    for _ in range(50):
        s1 = step(s1, cold, grid, 0.01)
        s2 = step(s2, md1, grid, 0.01)
    assert np.max(np.abs(s1.rho - s2.rho)) < 1e-14
    assert np.max(np.abs(s1.u - s2.u)) < 1e-14


def test_rk4_order_of_convergence():
    grid = Grid(L=TWO_PI, nx=32)
    c = ColdClosure()

    def final_rho(dt):
        s = single_mode_state(grid, c, eps=1e-2)
        for _ in range(int(round(0.5 / dt))):
            s = step(s, c, grid, dt)
        return s.rho

    ref = final_rho(0.003125)
    errs = [np.max(np.abs(final_rho(dt) - ref)) for dt in (0.1, 0.05, 0.025)]
    assert errs[0] / errs[1] > 10.0
    assert errs[1] / errs[2] > 10.0


def test_split_scheme_preserves_micro_casimirs_exactly():
    grid = Grid(L=TWO_PI, nx=64)
    c = BurbyClosure(2)
    state = single_mode_state(grid, c, eps=1e-5, nu_base=[0.05, 0.5],
                              nu_eps=[1e-6, 1e-6])
    result = run_fluid(state, c, grid, dt=0.01, t_end=2.0, scheme="split",
                       stride=10)
    r0 = result.records[0]
    for k in range(c.nu_count):
        drift = max(abs(r.C_nu[k] - r0.C_nu[k]) for r in result.records)
        assert drift / max(abs(r0.C_nu[k]), 1.0) < 1e-12
    assert max(abs(r.C_mass - r0.C_mass) for r in result.records) < 1e-12
    assert max(abs(r.C_psi - r0.C_psi) for r in result.records) < 1e-12


def test_stream_oracle_matches_two_delta_fluid():
    grid = Grid(L=TWO_PI, nx=64)
    sst = two_stream_state(grid, n0=1.0, v0=0.2, eps=1e-3)
    rho, u, xi, eta = multidelta_normal_map(list(sst.a), list(sst.v))
    c = MultiDeltaClosure(2)
    fst = FieldState(np.array([rho, u, xi[0], eta[0]]), sst.n0)
    dt, nsteps = 0.002, 250
    for _ in range(nsteps):
        fst = step(fst, c, grid, dt)
        sst = step_streams(sst, grid, dt)
    mu_vals = [c.mu_value(n, list(fst.nu)) for n in (1, 2, 3)]
    P_fluid = p_from_mu(fst.rho, fst.u - fst.rho * mu_vals[0], mu_vals)
    for k in range(4):
        P_stream = np.sum(sst.a * sst.v ** k, axis=0)
        dev = np.max(np.abs(P_fluid[k] - P_stream)) / np.max(np.abs(P_stream))
        assert dev < 1e-6, (k, dev)


def test_stream_conservation():
    grid = Grid(L=TWO_PI, nx=64)
    s = two_stream_state(grid, v0=0.3, eps=1e-3)
    H0, m0, p0 = stream_diagnostics(s, grid)
    for _ in range(200):
        s = step_streams(s, grid, 0.01)
    H1, m1, p1 = stream_diagnostics(s, grid)
    assert abs(H1 - H0) / abs(H0) < 1e-10
    assert abs(m1 - m0) / m0 < 1e-13
    assert abs(p1 - p0) < 1e-12


def test_wave_breaking_detection():
    grid = Grid(L=TWO_PI, nx=64)
    a = np.full((1, grid.nx), 1.0)
    v = 2000.0 * np.cos(grid.x)[None, :]
    state = StreamState(np.concatenate([a, v]), n0=1.0)
    with pytest.raises(WaveBreakError):
        check_wave_breaking(state, grid)


def test_cfl_estimate_reflects_thermal_speed():
    grid = Grid(L=TWO_PI, nx=64)
    cold = single_mode_state(grid, ColdClosure(), eps=1e-3)
    c = BurbyClosure(2)
    warm = single_mode_state(grid, c, eps=1e-3, nu_base=[0.1, 1.5])
    assert cfl_dt(warm, c, grid) < cfl_dt(cold, ColdClosure(), grid)
    assert cfl_dt(cold, ColdClosure(), grid) > 0


def test_density_floor_enforced():
    grid = Grid(L=TWO_PI, nx=64)
    c = ColdClosure()
    state = single_mode_state(grid, c, eps=1e-3)
    state.rho[0] = 0.0
    with pytest.raises(SimulationError):
        rhs_fluid(state, c, grid)


@pytest.mark.parametrize("faults, message", [
    ([("rho", 3, 0.5 * RHO_FLOOR)], "density fell below"),
    ([("rho", 3, -np.inf)], "density fell below"),
    ([("rho", 3, np.nan)], "non-finite field values"),
    ([("rho", 3, np.inf)], "non-finite field values"),
    ([("u", 5, np.nan)], "non-finite field values"),
    ([("u", 5, -np.inf)], "non-finite field values"),
    ([("nu", (1, 7), np.inf)], "non-finite field values"),
    ([("nu", (0, 2), np.nan)], "non-finite field values"),
    # the density test comes first, whatever else is wrong
    ([("u", 5, np.nan), ("rho", 9, 0.0)], "density fell below"),
    ([("rho", 3, np.nan), ("rho", 9, 0.0)], "density fell below"),
    # a finite value whose square overflows hides no fault
    ([("u", 5, 1e200), ("nu", (1, 7), np.inf)], "non-finite field values"),
], ids=["rho-floor", "rho-minus-inf", "rho-nan", "rho-inf", "u-nan", "u-minus-inf",
        "nu-inf", "nu-nan", "floor-before-nan", "floor-before-rho-nan",
        "overflow-and-inf"])
def test_check_state_messages(faults, message):
    grid = Grid(L=TWO_PI, nx=32)
    state = single_mode_state(grid, BurbyClosure(2), eps=1e-3, nu_base=[0.1, 0.4])
    _check_state(state)
    for field, index, value in faults:
        getattr(state, field)[index] = value
    with pytest.raises(SimulationError, match=message):
        _check_state(state)


@pytest.mark.parametrize("field, index", [("rho", 3), ("u", 5), ("nu", (1, 7))])
def test_check_state_passes_finite_values_whose_squares_overflow(field, index):
    # finite values whose squares overflow to inf: no fault and no warning
    grid = Grid(L=TWO_PI, nx=32)
    state = single_mode_state(grid, BurbyClosure(2), eps=1e-3, nu_base=[0.1, 0.4])
    getattr(state, field)[index] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_state(state)


@pytest.mark.parametrize("field, index", [("rho", [3, 4]), ("u", [5, 6]),
                                          ("nu", [(1, 7), (1, 8)])])
def test_check_state_passes_finite_values_whose_sum_overflows(field, index):
    # the quick test's sum overflows to inf: a false alarm that the exact
    # tests clear
    grid = Grid(L=TWO_PI, nx=32)
    state = single_mode_state(grid, BurbyClosure(2), eps=1e-3, nu_base=[0.1, 0.4])
    for i in index:
        getattr(state, field)[i] = 1.5e308
    with np.errstate(over="ignore"):
        _check_state(state)


def test_check_state_makes_no_blas_call(monkeypatch):
    # a BLAS dot spreads a large grid over threads unless they are pinned
    def blas(*args, **kwargs):
        raise AssertionError("BLAS call in _check_state")

    for name in ("dot", "vdot", "inner", "matmul"):
        monkeypatch.setattr(np, name, blas)
    grid = Grid(L=TWO_PI, nx=16384)
    state = single_mode_state(grid, BurbyClosure(2), eps=1e-3, nu_base=[0.1, 0.4])
    _check_state(state)
    state.nu[1, 7] = np.nan
    with pytest.raises(SimulationError, match="non-finite field values"):
        _check_state(state)


def test_check_state_without_normal_variables():
    grid = Grid(L=TWO_PI, nx=32)
    state = single_mode_state(grid, ColdClosure(), eps=1e-3)
    assert state.nu.shape == (0, 32)
    _check_state(state)
    state.u[0] = np.inf
    with pytest.raises(SimulationError, match="non-finite field values"):
        _check_state(state)


def _int_block(nx=16):
    """An integer burby 2 block: rho (10, 12, 14, 12, ...) about n0 = 12, u
    = 0 and nu = (0, 1)."""
    return np.array([np.tile([10, 12, 14, 12], nx // 4), np.zeros(nx, int),
                     np.zeros(nx, int), np.ones(nx, int)])


@pytest.mark.parametrize("scheme", ["rk4", "split"])
def test_an_integer_start_steps_as_its_float_start(scheme):
    """A state stores its block as float64: the split step once packed an
    integer rho as integers, which truncated every update of it."""
    grid, c = Grid(L=TWO_PI, nx=16), BurbyClosure(2)
    start = FieldState(_int_block(), 12)
    assert start.block.dtype == np.float64
    got = step(start, c, grid, 1e-3, scheme=scheme)
    want = step(FieldState(_int_block().astype(float), 12.0), c, grid, 1e-3, scheme=scheme)
    assert got.block.dtype == np.float64
    assert np.array_equal(got.block, want.block)


@pytest.mark.parametrize("kind", [FieldState, StreamState])
@pytest.mark.parametrize("block, message", [
    (np.ones((4, 16), complex), "dtype complex128"),
    (np.ones((4, 16), object), "dtype object"),
    (np.ones(16), r"shape \(rows >= 2, nx\), got \(16,\)"),
    (np.ones((1, 16)), r"got \(1, 16\)"),
    (np.ones((4, 2, 16)), r"got \(4, 2, 16\)"),
], ids=["complex", "object", "1-D", "one-row", "3-D"])
def test_a_state_refuses_a_block_of_the_wrong_dtype_or_shape(kind, block, message):
    with pytest.raises(ValueError, match=message):
        kind(block, 1.0)


def test_a_stream_state_refuses_an_odd_row_count():
    with pytest.raises(ValueError, match="needs 2M rows, got 3"):
        StreamState(np.ones((3, 16)), 1.0)


@pytest.mark.parametrize("level", [4, 1], ids=["too-many-rows", "too-few-rows"])
def test_a_state_whose_rows_are_not_the_closures_N_is_refused(level):
    """Burby 4's 6 rows under burby 2 once gave a record of the first two nu
    rows and a broadcast error in the steps; burby 1's 3 rows an IndexError."""
    grid, c = Grid(L=TWO_PI, nx=16), BurbyClosure(2)
    state = single_mode_state(grid, BurbyClosure(level), eps=1e-3,
                              nu_base=[0.05, 0.5, 0.05, 0.5][:level])
    message = re.escape(f"the state has {level + 2} rows, but {c.name} needs N = 4")
    for call in (lambda: step(state, c, grid, 1e-3, scheme="rk4"),
                 lambda: step(state, c, grid, 1e-3, scheme="split"),
                 lambda: rhs_fluid(state, c, grid), lambda: diagnostics(state, c, grid)):
        with pytest.raises(ValueError, match=message):
            call()


def _micro_rows_reference(rho, psi, mtil, tab):
    """Tinv dH/dm with every row of dH/dm evaluated, in the expression
    order of the split scheme."""
    m = tab.Tinv.T @ mtil
    nu = m / rho
    nuv = list(nu)
    mu1 = tab.mu1(nuv)
    u = psi + rho * mu1
    dH_m = []
    for k in range(tab.nv):
        dmu1 = tab.dmu1[k](nuv)
        dH_m.append(rho * u * dmu1
                    + 0.5 * rho ** 2 * (tab.dmu2[k](nuv) - 2.0 * mu1 * dmu1))
    return tab.Tinv @ np.array(dH_m)


@pytest.mark.parametrize("closure", [
    BurbyClosure(2), BurbyClosure(3), BurbyClosure(4), MultiDeltaClosure(3),
    WaterbagClosure([F(1), F(2), F(-1), F(-2)]),
], ids=lambda c: c.name)
def test_micro_rows_bit_identical_to_all_rows(closure):
    tab = closure.derived(_ClosureTables)
    grid = Grid(L=TWO_PI, nx=64)
    x = grid.x
    rng = np.random.default_rng(7)
    zeros = 0
    for _ in range(3):
        phases = rng.uniform(0.0, TWO_PI, size=2 + tab.nv)
        rho = 1.0 + 0.2 * np.sin(x + phases[0])
        psi = 0.3 * np.cos(2.0 * x + phases[1])
        nu = np.array([rng.uniform(0.1, 0.6) + 0.05 * np.sin(x + p)
                       for p in phases[2:]])
        mtil = tab.T.T @ (rho * nu)
        expected = _micro_rows_reference(rho, psi, mtil, tab)
        # one workspace for every row, in the order of a split step, and
        # each flow's preparation before its row
        work = _SplitWork(tab.nv, grid.nx)
        for a in [*range(tab.nv), *reversed(range(tab.nv))]:
            work.begin_micro(rho, tab, a)
            got = _split_derivs(rho, psi, mtil, tab, 1.0, grid, work, micro=a)
            assert np.array_equal(got, expected[a])
            for k in range(tab.nv):
                if tab.Tinv[a, k] == 0.0:
                    zeros += 1
                    assert not work.dH_m[k].any()
    if closure.name != "burby(m=2)":  # the one full Tinv here
        assert zeros


def test_snapshot_round_trip(tmp_path):
    grid = Grid(L=TWO_PI, nx=64)
    c = BurbyClosure(2)
    state = single_mode_state(grid, c, eps=1e-3, nu_base=[0.1, 0.4])
    path = tmp_path / "snap.npz"
    write_snapshot(path, state)
    data = np.load(path)
    assert int(data["format_version"]) == 1
    assert int(data["nx"]) == 64 and int(data["N"]) == 4
    assert np.array_equal(data["rho"], state.rho)
    assert np.array_equal(data["nu"], state.nu)


def test_hamiltonian_decomposition():
    grid = Grid(L=TWO_PI, nx=64)
    c = ColdClosure()
    state = single_mode_state(grid, c, eps=1e-2, u0=0.1)
    rec = diagnostics(state, c, grid)
    kinetic = 0.5 * grid.integral(state.rho * state.u ** 2)
    assert abs(rec.H - kinetic - rec.field_energy) < 1e-14


@pytest.mark.parametrize("make", [ColdClosure, lambda: BurbyClosure(3),
                                  lambda: MultiDeltaClosure(3)],
                         ids=["cold", "burby3", "multidelta3"])
def test_closure_tables_read_the_closure_evaluators(make):
    closure = make()
    tab = closure.derived(_ClosureTables)
    assert tab.mu1 is closure.float_eval("mu", 1)
    assert tab.mu2 is closure.float_eval("mu", 2)
    assert tab.dmu1 is closure.float_eval("grad", 1)
    assert tab.dmu2 is closure.float_eval("grad", 2)
    assert tab.gamma2 is closure.float_eval("gamma", 2)
    assert len(tab.dmu1) == len(tab.dmu2) == closure.nu_count


def test_closure_tables_do_not_pin_the_closure():
    # the tables are built once per closure, and both are freed together
    grid = Grid(L=TWO_PI, nx=32)
    c = BurbyClosure(2)
    state = single_mode_state(grid, c, eps=1e-3, nu_base=[0.1, 0.4])
    rhs_fluid(state, c, grid)
    tables = c.derived(_ClosureTables)
    assert c.derived(_ClosureTables) is tables
    refs = weakref.ref(c), weakref.ref(tables)
    del c, tables
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_grid_operators_built_once_and_read_only():
    grid = Grid(L=TWO_PI, nx=32)
    assert grid.k is grid.k and grid.ik is grid.ik and grid.k2 is grid.k2
    assert grid.cut == 10
    assert np.array_equal(grid.k2, grid.k[1:] ** 2)
    with pytest.raises(ValueError):
        grid.k[0] = 1.0
    f = np.array([np.sin(2.0 * grid.x), np.cos(3.0 * grid.x)])
    for g in (grid, Grid(L=TWO_PI, nx=32, method="fd2")):
        d = g.deriv(f)  # rows are differentiated independently
        assert np.array_equal(d[0], g.deriv(f[0]))
        assert np.array_equal(d[1], g.deriv(f[1]))


@pytest.mark.parametrize("rows", ["1-D", "2-D", "2-D-with-field"])
@pytest.mark.parametrize("method", ["spectral", "fd2"])
def test_grid_derivative_in_place_is_bit_identical(method, rows):
    grid = Grid(L=TWO_PI, nx=32, method=method)
    x = grid.x
    f = np.array([np.sin(2.0 * x) + 0.3 * np.cos(5.0 * x), np.exp(np.cos(x)),
                  0.2 * np.cos(3.0 * x) + 0.1 * np.sin(x)])
    f = f[0] if rows == "1-D" else f
    field_op = grid.ik[1:] if rows == "2-D-with-field" else None
    expected = grid.deriv(f, field_op=field_op)
    if method == "fd2":  # central differences, the edges wrapped
        g = f if field_op is None else f[:-1]
        d = (np.roll(g, -1, axis=-1) - np.roll(g, 1, axis=-1)) / (2 * grid.dx)
        assert d.tobytes() == (expected if field_op is None else expected[:-1]).tobytes()
    for work in (Workspace(), None):
        g = f.copy()
        kwargs = {} if work is None else {"work": work}
        assert grid.deriv(g, out=g, field_op=field_op, **kwargs) is g
        assert g.tobytes() == expected.tobytes()


def test_a_workspace_finds_a_buffer_by_name_shape_and_dtype():
    work = Workspace()
    a = work.buf("x", (2, 8))
    assert work.buf("x", (2, 8)) is a
    # the same name and shape in another dtype returned the float buffer
    c = work.buf("x", (2, 8), complex)
    assert c is not a and c.dtype == complex and c.shape == (2, 8)
    assert work.buf("x", (2, 8), complex) is c
    assert work.buf("x", (16,)) is not a and work.buf("y", (2, 8)) is not a


def test_single_mode_state_checks_normal_variable_lists():
    grid = Grid(L=TWO_PI, nx=32)
    c = BurbyClosure(2)
    # a third value was dropped silently, and one value was an IndexError
    for kwargs in ({"nu_base": [0.05, 0.5, 0.7]}, {"nu_base": [0.05]},
                   {"nu_base": [0.05, 0.5], "nu_eps": [1e-6, 1e-6, 1e-6]},
                   {"nu_eps": [1e-6]}):
        name = "nu_eps" if "nu_eps" in kwargs else "nu_base"
        with pytest.raises(ValueError, match=f"{name} needs 2 values"):
            single_mode_state(grid, c, **kwargs)
    state = single_mode_state(grid, c, nu_base=[0.05, 0.5])
    assert np.array_equal(state.nu, [[0.05] * 32, [0.5] * 32])
    assert single_mode_state(grid, ColdClosure()).nu.shape == (0, 32)


def _burby_state(grid, level=2):
    """The benchmark's burby start: nu_base (0.05, 0.5) for level 2 and
    (0.05, 0.5, 0.05, 0.5) for level 4."""
    return single_mode_state(grid, BurbyClosure(level), eps=1e-3,
                             nu_base=[0.05, 0.5] * (level // 2), nu_eps=[1e-4] * level)


def _copies(state):
    return [getattr(state, f).copy() for f in ("rho", "u", "nu")]


def _unchanged(state, copies):
    return all(np.array_equal(getattr(state, f), c)
               for f, c in zip(("rho", "u", "nu"), copies))


@pytest.mark.parametrize("scheme", ["rk4", "split"])
@pytest.mark.parametrize("method", ["spectral", "fd2"])
def test_returned_states_survive_later_steps(scheme, method):
    """A run reuses one workspace, but every state a step returns is its
    own array: the caller may keep it while the run goes on."""
    grid = Grid(L=TWO_PI, nx=32, method=method)
    c = BurbyClosure(2)
    state, work, kept = _burby_state(grid), Workspace(), []
    for _ in range(4):
        state = step(state, c, grid, 0.01, scheme=scheme, work=work)
        kept.append((state, _copies(state)))
    assert all(_unchanged(s, copies) for s, copies in kept)
    assert not np.shares_memory(kept[0][0].rho, kept[1][0].rho)

    recorded = []
    result = run_fluid(_burby_state(grid), c, grid, dt=0.01, t_end=0.05,
                       scheme=scheme, on_record=lambda s, rec:
                       recorded.append((s, _copies(s))))
    assert len(recorded) == 5 and recorded[-1][0] is result.final
    assert all(_unchanged(s, copies) for s, copies in recorded)


@pytest.mark.parametrize("level", [2, 4])
@pytest.mark.parametrize("with_work", [True, False], ids=["workspace", "fresh"])
def test_a_split_step_leaves_the_callers_state_alone(level, with_work):
    """The micro flows write their stage rows into the packed mtil; the
    state a split step was given keeps every bit."""
    grid = Grid(L=TWO_PI, nx=32)
    state = _burby_state(grid, level)
    copies = _copies(state)
    kwargs = {"work": Workspace()} if with_work else {}
    for _ in range(2):
        step(state, BurbyClosure(level), grid, 0.01, scheme="split", **kwargs)
    assert _unchanged(state, copies)


def test_stream_states_survive_later_steps():
    grid = Grid(L=TWO_PI, nx=32)
    state, work, kept = two_stream_state(grid, v0=0.3), Workspace(), []
    for _ in range(4):
        state = step_streams(state, grid, 0.01, work=work)
        kept.append((state, state.a.copy(), state.v.copy()))
    assert all(np.array_equal(s.a, a) and np.array_equal(s.v, v) for s, a, v in kept)


@pytest.mark.parametrize("stepper", ["rk4", "split", "streams"])
def test_a_step_leaves_its_input_alone_and_returns_a_fresh_block(stepper):
    grid, work = Grid(L=TWO_PI, nx=32), Workspace()
    if stepper == "streams":
        state = two_stream_state(grid, v0=0.3)

        def advance(s):
            return step_streams(s, grid, 0.01, work=work)
    else:
        state = _burby_state(grid)

        def advance(s):
            return step(s, BurbyClosure(2), grid, 0.01, scheme=stepper, work=work)
    start = state.block.copy()
    new = advance(state)
    assert np.array_equal(state.block, start)
    newer = advance(new)
    for block in (state.block, newer.block, *work._bufs.values()):
        assert not np.shares_memory(new.block, block)


def test_calls_without_a_workspace_return_fresh_arrays():
    grid = Grid(L=TWO_PI, nx=32)
    state = _burby_state(grid)
    f = np.sin(grid.x)
    for g in (grid, Grid(L=TWO_PI, nx=32, method="fd2")):
        assert not np.shares_memory(g.deriv(f), g.deriv(f))
    for solve in (poisson_solve, electric_potential):
        assert not np.shares_memory(solve(state.rho, 1.0, grid),
                                    solve(state.rho, 1.0, grid))
    first, second = rhs_fluid(state, BurbyClosure(2), grid), \
        rhs_fluid(state, BurbyClosure(2), grid)
    assert not any(np.shares_memory(a, b) for a in first for b in second)


def _count_transforms(monkeypatch) -> dict:
    """Count numpy's rfft/irfft calls, patched on np.fft as the benchmark's
    tracer patches them."""
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.mark.parametrize("closure, nu_base, scheme, per_step", [
    # 4 stages x (field solve + batched derivative)
    (BurbyClosure(2), [0.05, 0.5], "rk4", 8),
    (ColdClosure(), [], "rk4", 8),
    # macro: 4 stages x 2; micro: nv fields x 2 half steps x 4 stages x 1
    (BurbyClosure(2), [0.05, 0.5], "split", 8 + 16),
    (BurbyClosure(4), [0.05, 0.5, 0.05, 0.5], "split", 8 + 32),
], ids=["burby2-rk4", "cold-rk4", "burby2-split", "burby4-split"])
def test_a_step_takes_the_same_transforms(monkeypatch, closure, nu_base, scheme,
                                          per_step):
    grid = Grid(L=TWO_PI, nx=32)
    state, work = single_mode_state(grid, closure, eps=1e-3, nu_base=nu_base), Workspace()
    counts = _count_transforms(monkeypatch)
    for _ in range(3):
        state = step(state, closure, grid, 0.01, scheme=scheme, work=work)
    assert counts == {"rfft": 3 * per_step, "irfft": 3 * per_step}


@pytest.mark.parametrize("method", ["spectral", "fd2"])
def test_stream_rates_solve_E_in_the_derivative_call_bit_for_bit(method):
    # E rides in the derivative's batch as one more row; a row's transform
    # does not depend on the rows beside it
    grid = Grid(L=TWO_PI, nx=32, method=method)
    state = two_stream_state(grid, eps=1e-2)
    d_av, d_v = rhs_streams(state, grid)
    E = poisson_solve(np.sum(state.a, axis=0), state.n0, grid)
    assert np.array_equal(d_av, -grid.deriv(state.a * state.v))
    assert np.array_equal(d_v, grid.deriv(state.v) * -state.v + E)


def test_a_stream_step_takes_the_same_transforms(monkeypatch):
    grid = Grid(L=TWO_PI, nx=32)
    state, work = two_stream_state(grid), Workspace()
    counts = _count_transforms(monkeypatch)
    for _ in range(3):
        state = step_streams(state, grid, 0.01, work=work)
    # 4 stages x 1: E is solved in the derivative's own transforms
    assert counts == {"rfft": 3 * 4, "irfft": 3 * 4}


# Bytes one more step may take beyond what it holds when it starts, in
# full-grid rows (8 nx bytes), at nx = 4096 for burby 2 and, split only,
# burby 4. With a workspace: the fresh state (rk4: the 2 + nv rate rows of
# stage 1, which take the update; split: the packed state, whose arrays
# the unpacked state takes over), a few rows that the compiled closure
# evaluators return, and for rk4 a 320 KB (10-row) buffer that numpy's ufunc
# iterator takes for the in-place multiply of its batch of 6 spectra by ik
# (at this nx; at nx = 16384 a row is longer than the iterator's buffer,
# and it takes none). Measured: 14.2 rows (rk4), 8.1 (split) and 11.2
# (burby 4 split). They were 19.2, 10.2 and 13.1 while rk4's rate blocks
# had 2 nv + 2 rows, the field solve made three fresh rows per stage and
# `_split_unpack` made nu and u fresh; a step that allocates all its
# temporaries, as every step did before workspaces, takes 52.2 and 32.2
# for burby 2.
STEADY_STEP_ROWS = {("rk4", 2): 14.5, ("split", 2): 8.5, ("split", 4): 11.5}
# Without a workspace a step allocates each temporary where it is used.
# Measured: 35.2 rows (rk4) and 25.2 (split), against 46.2 and 25.2 before
# the changes above (the rest of the bound leaves room for a few KB of
# Python objects).
NO_WORKSPACE_STEP_ROWS = {"rk4": 35.5, "split": 25.5}


def _case_ids(table) -> list:
    """Test ids of the (scheme, burby level) cases: a burby 2 case by its
    scheme alone."""
    return [scheme if level == 2 else f"{scheme}-burby{level}" for scheme, level in table]


def _step_rows(scheme, work=None, level=2) -> float:
    grid = Grid(L=TWO_PI, nx=4096)
    c = BurbyClosure(level)
    kwargs = {} if work is None else {"work": work}
    state = step(_burby_state(grid, level), c, grid, 1e-4, scheme=scheme, **kwargs)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        state = step(state, c, grid, 1e-4, scheme=scheme, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - held) / (8 * grid.nx)


@pytest.mark.parametrize("scheme, level", STEADY_STEP_ROWS, ids=_case_ids(STEADY_STEP_ROWS))
def test_a_steady_step_allocates_no_workspace(scheme, level):
    work = Workspace()
    assert _step_rows(scheme, work, level) <= STEADY_STEP_ROWS[scheme, level]
    # the run's first step made every buffer; a later step adds none
    buffers = dict(work._bufs)
    _step_rows(scheme, work, level)
    assert work._bufs.keys() == buffers.keys()
    assert all(work._bufs[key] is a for key, a in buffers.items())


@pytest.mark.parametrize("scheme", ["rk4", "split"])
def test_a_step_without_a_workspace_allocates_no_more_than_before(scheme):
    assert _step_rows(scheme) <= NO_WORKSPACE_STEP_ROWS[scheme]


# Full-grid rows (a spectrum row of nx/2 + 1 complex numbers counts as one)
# that a run's workspace holds after one step at nx = 4096. Each rk4 keeps
# its stage state and one rate buffer that stages 2 to 4 share. For rk4
# (burby 2): 4 stage and 4 rate rows, rhs_fluid's 6 derivative rows, which
# take their own derivative, the field solve's row, which rhs_fluid uses as
# scratch besides, and 7 spectrum rows: 22, where 27 were held while the
# rate buffer had 2 + 2 nv rows and rhs_fluid kept dH/dnu, (1/2) rho^3,
# 2 mu1 and a scratch row of its own. For split: 2 stage and 2 rate rows,
# whose first rows the micro flows take, beside the 2 nv + 7 rows of
# `_SplitWork` (one of them the field solve's) and 3 spectrum rows (a micro
# row's and the field's are one): 2 nv + 14 in all. Measured 22, 18 (burby
# 2 split) and 22 (burby 4 split); a rate buffer per stage held 39 for rk4,
# and a split step that kept nv-row buffers of m, dH/dmtil and a copy of
# mtil held 23 and 33.
WORKSPACE_ROWS = {("rk4", 2): 22, ("split", 2): 18, ("split", 4): 22}


@pytest.mark.parametrize("scheme, level", WORKSPACE_ROWS, ids=_case_ids(WORKSPACE_ROWS))
def test_a_workspace_holds_one_rate_buffer_per_rk4(scheme, level):
    grid = Grid(L=TWO_PI, nx=4096)
    work = Workspace()
    step(_burby_state(grid, level), BurbyClosure(level), grid, 1e-4, scheme=scheme,
         work=work)
    rows = sum(a.size // a.shape[-1] for a in work._bufs.values())
    assert rows <= WORKSPACE_ROWS[scheme, level]


def _simulate_argv(tmp_path, scheme, level, nx=4096, steps=5) -> list:
    """A `simulate` command line of a short run from the burby start of
    `_burby_state`, writing its config under `tmp_path`."""
    cfg = {"grid": {"L": TWO_PI, "nx": nx},
           "closure": {"family": "burby", "level": level},
           "initial": {"eps": 1e-3, "nu_base": [0.05, 0.5] * (level // 2),
                       "nu_eps": [1e-4] * level},
           "integrator": {"scheme": scheme, "dt": 1e-4, "t_end": steps * 1e-4}}
    path = tmp_path / f"{scheme}-burby{level}.json"
    path.write_text(json.dumps(cfg))
    return ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# Bytes a whole `simulate` command takes beyond what the process holds when
# it starts, in full-grid rows, at nx = 4096 with 5 steps: the second
# command of the process, so without one-time set-up such as numpy's FFT
# plans. Measured 43.7 rows (burby 2 rk4) and 46.8 (burby 4 split), where
# they were 59.7 and 50.9 while the command held its start to the end of
# the run and rk4's rate blocks had 2 nv + 2 rows.
SIMULATE_ROWS = {("rk4", 2): 44.5, ("split", 4): 47.5}


@pytest.mark.parametrize("scheme, level", SIMULATE_ROWS, ids=_case_ids(SIMULATE_ROWS))
def test_a_simulate_command_peaks_within_its_rows(tmp_path, scheme, level):
    argv = _simulate_argv(tmp_path, scheme, level)
    assert _quiet_main(argv) == 0
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        assert _quiet_main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - held) / (8 * 4096) <= SIMULATE_ROWS[scheme, level]


@pytest.mark.parametrize("scheme, level", SIMULATE_ROWS, ids=_case_ids(SIMULATE_ROWS))
def test_a_simulate_command_frees_its_start_after_step_1(tmp_path, monkeypatch,
                                                          scheme, level):
    """Once step 1 is done, no reference to the start state is left: the
    command hands its one reference to the run, which lets it go."""
    import hydroclosures.sim as sim
    build, step_ = cli._build_initial, sim.step
    refs, alive = [], []

    def built(*args, **kwargs):
        state = build(*args, **kwargs)
        # rho, u and nu are fresh views of the block, made on each access
        refs.extend(weakref.ref(a) for a in (state, state.block))
        return state

    def stepped(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return step_(*args, **kwargs)

    monkeypatch.setattr(cli, "_build_initial", built)
    monkeypatch.setattr(sim, "step", stepped)
    assert _quiet_main(_simulate_argv(tmp_path, scheme, level, nx=32, steps=3)) == 0
    assert alive == [[True] * 2, [False] * 2, [False] * 2]
