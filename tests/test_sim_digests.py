"""Bit-identity of the fluid solver and of the kinetic oracle.

The digests below are sha256 sums of `diagnostics.csv` from short `simulate`
runs and of the final fluid and stream arrays of a `compare`-style run. They
were recorded before the spectral operators were precomputed per grid and the
dead work was dropped from the steppers (the nx = 4096 and multidelta cases
before the steppers reused their stage buffers, the u0 case after), so any
change to the order in which floats are combined shows up here. The cases
cover rk4 and split, spectral and fd2 derivatives, 0, 1, 2 and 4 normal
variables, grids of 32 and 4096 cells, and a uniform drift u0 that makes
the rho u term of the split scheme's micro dH/dm_k large enough for its
last bits to count.

The digests hold for the numpy release they were recorded with; another
FFT build may round differently, so the test skips on any other release.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hydroclosures import sim
from hydroclosures.cli import main
from hydroclosures.closures import MultiDeltaClosure, multidelta_normal_map

RECORDED_WITH_NUMPY = "2.4.6"
TWO_PI = 2.0 * math.pi
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

needs_recorded_numpy = pytest.mark.skipif(
    np.__version__ != RECORDED_WITH_NUMPY,
    reason=f"digests recorded with numpy {RECORDED_WITH_NUMPY}")

BURBY2 = {"family": "burby", "level": 2}
BURBY4 = {"family": "burby", "level": 4}
WATERBAG3 = {"family": "waterbag", "heights": ["1", "1", "-2"]}
MULTIDELTA3 = {"family": "multidelta", "M": 3}

# label: (closure, scheme, method, nu_base, sha256 of diagnostics.csv)
SIMULATE_CASES = {
    "cold-rk4-spectral": ({"family": "cold"}, "rk4", "spectral", (),
        "9e42234931d4a5f7bfdcf42c4a85099c5881f1d13cb99ea477526acc03e98ffe"),
    "cold-split-fd2": ({"family": "cold"}, "split", "fd2", (),
        "4e08d0bfd0629c41debde6d2d4e4a853cb92d2a17baec9ed73a3ebd2fbe8b2b7"),
    "burby2-rk4-spectral": (BURBY2, "rk4", "spectral", (0.05, 0.5),
        "80e882b6667582643190884dc0e91409c562c35835bb3ca058c2cd01dc026c24"),
    "burby2-rk4-fd2": (BURBY2, "rk4", "fd2", (0.05, 0.5),
        "7966f8644bd45fe72367042d968541a8081ede691398b18b18c4c10aae3c1bb9"),
    "burby2-split-spectral": (BURBY2, "split", "spectral", (0.05, 0.5),
        "1376ad29c8985206be1b3e84b304e393fe995e3020d93a8190621197c8c1d543"),
    "burby4-rk4-spectral": (BURBY4, "rk4", "spectral", (0.05, 0.5, 0.05, 0.5),
        "ded38d01f93249fa44a4958c5d15f8e1c92b8ee0a7a8ea0c467534d69522b9f3"),
    "burby4-split-spectral": (BURBY4, "split", "spectral", (0.05, 0.5, 0.05, 0.5),
        "56552e2183d0c75580360b8c6c8717714b2fed39ddcc266b1171c1eaee95378d"),
    "burby4-split-fd2": (BURBY4, "split", "fd2", (0.05, 0.5, 0.05, 0.5),
        "ec7c7fc4ef8d0ce30edb8615448c903c501427c71cb34c4577b74759be7d9bac"),
    "waterbag3-split-spectral": (WATERBAG3, "split", "spectral", (0.5,),
        "700b6d3eb99ee9316b4fd7093821529553b578c5d420d7d2466721e2f85bdf54"),
    "burby2-rk4-nx4096": (BURBY2, "rk4", "spectral", (0.05, 0.5),
        "2c50d7c71f9602c11e2b4f9c04cfe3b077131840adc771900813f464504b5371"),
    "burby4-split-nx4096": (BURBY4, "split", "spectral", (0.05, 0.5, 0.05, 0.5),
        "5c018118639c2c1e8a2d47aa3680a65ce5bcd5e2ae28515b191107fa39cc3faa"),
    "multidelta3-split-spectral": (MULTIDELTA3, "split", "spectral",
                                   (0.25, 0.25, 0.5, -0.5),
        "1d7def569da9082582a3c79204d4ab5ba7aad59fd085ed635c21b5bfcedfaa36"),
    "burby2-split-u0": (BURBY2, "split", "spectral", (0.05, 0.5),
        "04652d77d0f57602944ff0e48e3e4df8d705ceb89d9593747ea0a6dd8af9eb9f"),
}

# (nx, dt, t_end) of the cases not on the default 32-cell grid: large FFTs,
# and full-grid arrays above the default allocator threshold for mmap
GRIDS = {"burby2-rk4-nx4096": (4096, 5e-4, 0.005),
         "burby4-split-nx4096": (4096, 5e-4, 0.005)}
DEFAULT_GRID = (32, 0.01, 0.2)
# initial uniform velocity of the cases that do not start at rest
U0 = {"burby2-split-u0": 0.5}

COMPARE_SHA256 = "b06b6ecca1f145f74abc0f71a7a551e9b9e592198d1d6e03be80501bf399111d"


def simulate_config(closure, scheme, method, nu_base, grid=DEFAULT_GRID,
                    u0=None) -> dict:
    nx, dt, t_end = grid
    initial = {"eps": 1e-3}
    if u0 is not None:
        initial["u0"] = u0
    if nu_base:
        initial.update(nu_base=list(nu_base), nu_eps=[1e-4] * len(nu_base))
    return {"grid": {"L": TWO_PI, "nx": nx, "method": method},
            "closure": closure, "initial": initial,
            "integrator": {"scheme": scheme, "dt": dt, "t_end": t_end},
            "output": {"stride": 5}}


def simulate_digest(tmp_path, label: str) -> str:
    closure, scheme, method, nu_base, _ = SIMULATE_CASES[label]
    config = tmp_path / f"{label}.json"
    grid = GRIDS.get(label, DEFAULT_GRID)
    config.write_text(json.dumps(simulate_config(closure, scheme, method, nu_base, grid,
                                                 U0.get(label))))
    out = tmp_path / label
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every case stays within the CFL bound
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return hashlib.sha256((out / "diagnostics.csv").read_bytes()).hexdigest()


def compare_digest() -> str:
    """The fluid and stream states after the time loop of `compare`."""
    grid = sim.Grid(L=TWO_PI, nx=32)
    sst = sim.two_stream_state(grid, n0=1.0, v0=0.2, eps=1e-3)
    md = MultiDeltaClosure(2)
    rho, u, xi, eta = multidelta_normal_map(list(sst.a), list(sst.v))
    fst = sim.FieldState(np.array([rho, u, xi[0], eta[0]]), sst.n0)
    for _ in range(25):
        fst = sim.step(fst, md, grid, 0.002)
        sst = sim.step_streams(sst, grid, 0.002)
        sim.check_wave_breaking(sst, grid)
    h = hashlib.sha256()
    for a in (fst.rho, fst.u, fst.nu, sst.a, sst.v, np.array([fst.t, sst.t])):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


@needs_recorded_numpy
@pytest.mark.parametrize("label", sorted(SIMULATE_CASES))
def test_simulate_diagnostics_bit_identical(tmp_path, label):
    assert simulate_digest(tmp_path, label) == SIMULATE_CASES[label][-1]


@needs_recorded_numpy
def test_compare_final_state_bit_identical():
    assert compare_digest() == COMPARE_SHA256


def test_benchmark_tracer_wraps_and_restores(tmp_path):
    """perfbench/tracing.py looks up sim, poly and numpy names eagerly, so a
    rename breaks `--trace 1`; traced runs keep their bits and count the
    work of one burby-2 split run: 20 steps, 5 diagnostics records, and the
    one record and one set of fluid rates that `simulate` computes to check
    its start."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    originals = (sim.poisson_solve, sim._split_derivs, sim.Grid.deriv, np.fft.rfft)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sim.poisson_solve is not originals[0]
        digest = simulate_digest(tmp_path, "burby2-split-spectral")
    finally:
        tracer.uninstall()
    assert (sim.poisson_solve, sim._split_derivs, sim.Grid.deriv, np.fft.rfft) == originals
    if np.__version__ == RECORDED_WITH_NUMPY:
        assert digest == SIMULATE_CASES["burby2-split-spectral"][-1]
    calls = tracer.summary()["calls"]
    assert calls["sim.step"] == 20
    # per step the macro flow takes 4 rk4 stages and solves for phi in
    # each; the 16 micro stages (2 fields, 2 half steps, 4 stages) need
    # none; each record solves for E once; the start check takes one
    # record and one set of rates, each with one field solve
    assert calls["sim.field_solve"] == 20 * 4 + 5 + 2
    assert calls["sim.diagnostics"] == 5 + 1
    # one batched derivative per stage, and one for the start's rates
    assert calls["sim.deriv"] == 20 * (4 + 16) + 1


@pytest.mark.parametrize("argv", [
    ["closure", "casimir", "--family", "burby", "--level", "6"],
    # mu_1..mu_4 at (xi2, xi3, eta2, eta3) = (1/4, 1/2, 1, -1/2)
    ["closure", "eos", "--family", "multidelta", "--M", "3",
     "--mu", "0.0,0.375,0.1875,0.28125"],
], ids=["burby-casimir", "multidelta-eos"])
def test_benchmark_tracer_times_every_inversion(argv):
    """`Tracer._patch` skips a name that no longer exists, so a renamed or
    inlined inversion would drop out of `closures.invert.s` unnoticed: the
    explicit (Burby) and the Newton inversion must each record spans."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.summary()["calls"].get("closures.invert", 0) > 0


def test_traced_split_routes_every_stage_through_split_derivs(tmp_path):
    """Every macro and micro stage of a split step calls `_split_derivs`, so
    the traced `sim.rhs` count keeps its meaning: one burby-2 split run of
    20 steps takes 4 macro and 16 micro stages per step, after the one set
    of fluid rates that `simulate` computes to check its start."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        simulate_digest(tmp_path, "burby2-split-spectral")
    finally:
        tracer.uninstall()
    assert tracer.summary()["calls"]["sim.rhs"] == 20 * (4 + 16) + 1


if __name__ == "__main__":
    # print the digests of the code as it stands, to record them above
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        for label in SIMULATE_CASES:
            print(f"{label}: {simulate_digest(Path(d), label)}")
    print(f"compare: {compare_digest()}")
