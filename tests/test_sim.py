"""Fluid solver, kinetic oracle, and conservation behavior."""

import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from hydroclosures.closures import (BurbyClosure, ColdClosure,
                                    MultiDeltaClosure, WaterbagClosure,
                                    multidelta_normal_map)
from hydroclosures.moments import p_from_mu
from hydroclosures.sim import (RHO_FLOOR, FieldState, Grid, SimulationError,
                               _check_state, _ClosureTables, _split_derivs,
                               _SplitWork,
                               WaveBreakError, cfl_dt, check_wave_breaking,
                               diagnostics, poisson_solve, rhs_fluid,
                               run_fluid, single_mode_state, step,
                               step_streams, two_stream_state, write_snapshot)

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
    fst = FieldState(rho, u, np.array([xi[0], eta[0]]), sst.n0)
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
    state = type(two_stream_state(grid))(a=a, v=v, n0=1.0)
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
    ([("nu", (1, 7), np.inf)], "non-finite field values"),
    # the density test comes first, whatever else is wrong
    ([("u", 5, np.nan), ("rho", 9, 0.0)], "density fell below"),
], ids=["rho-floor", "rho-minus-inf", "rho-nan", "rho-inf", "u-nan", "nu-inf",
        "floor-before-nan"])
def test_check_state_messages(faults, message):
    grid = Grid(L=TWO_PI, nx=32)
    state = single_mode_state(grid, BurbyClosure(2), eps=1e-3, nu_base=[0.1, 0.4])
    _check_state(state)
    for field, index, value in faults:
        getattr(state, field)[index] = value
    with pytest.raises(SimulationError, match=message):
        _check_state(state)


def test_check_state_without_normal_variables():
    grid = Grid(L=TWO_PI, nx=32)
    state = single_mode_state(grid, ColdClosure(), eps=1e-3)
    assert state.nu.shape == (0, 32)
    _check_state(state)
    state.u[0] = np.inf
    with pytest.raises(SimulationError, match="non-finite field values"):
        _check_state(state)


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
    tab = _ClosureTables.of(closure)
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
        # one workspace for every row, in the order of a split step
        work = _SplitWork(tab.nv, grid.nx)
        for a in [*range(tab.nv), *reversed(range(tab.nv))]:
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
    write_snapshot(path, state, grid.nx, c.N)
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


def test_closure_tables_do_not_pin_the_closure():
    grid = Grid(L=TWO_PI, nx=32)
    c = BurbyClosure(2)
    state = single_mode_state(grid, c, eps=1e-3, nu_base=[0.1, 0.4])
    rhs_fluid(state, c, grid)
    assert c in _ClosureTables._cache
    before = len(_ClosureTables._cache)
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None
    assert len(_ClosureTables._cache) == before - 1


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
