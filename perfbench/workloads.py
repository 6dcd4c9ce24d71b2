"""The four benchmark workloads: the CLI commands each one runs, built from a seed.

A seed selects one of `VARIANTS` input variants (seed % VARIANTS); variant 0
is the default input set. Only the seeded inputs change between variants:
the waterbag height sets of `verify-dense` and the amplitudes of the
simulate workloads. `verify-sparse` has no seeded input. Every variant has a
reference under `refs/`, made by `make_refs.py`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

TWO_PI = 6.283185307179586

# Valid height sets whose `verify --family waterbag` cost came out within the
# run-to-run noise (about 10%) of the default's on a shared 2-core Xeon VM,
# so that a change of seed changes the inputs but hardly the amount of work.
HEIGHTS_N5 = ["1,1,1,-1,-2", "1,1,2,-1,-3", "2,-1,2,-1,-2", "1,2,1,-1,-3",
              "1,1,-1,1,-2", "2,1,-1,1,-3"]
HEIGHTS_N6 = ["1,-3,3,1,-1,-1", "3,2,1,-2,-1,-3", "1,1,1,1,-1,-3",
              "2,-3,2,1,-1,-1", "1,-2,-2,2,-1,2", "1,3,3,-3,-3,-1"]
VARIANTS = len(HEIGHTS_N6)

# Backgrounds of the normal variables; burby level 2 uses the one of
# acceptance criterion 9.
NU_BASE_BURBY2 = (0.05, 0.5)
NU_BASE_BURBY4 = (0.05, 0.5, 0.05, 0.5)
NU_BASE_WATERBAG3 = (0.5,)

WORKLOADS = ("verify-sparse", "verify-dense", "simulate-nx64", "simulate-nx16384")


@dataclass(frozen=True)
class Command:
    """One CLI invocation. `kind` says how its output is checked:
    'report' (the JSON report's checks), 'simulate' (report checks plus the
    sha256 of diagnostics.csv) or 'text' (stdout equals the reference)."""

    label: str
    argv: tuple
    kind: str
    steps: int = 0  # fluid time steps the command takes
    config: tuple = ()  # (path, JSON text) of the config file it reads


def variant(workload: str, seed: int) -> int:
    """The input variant `seed` selects; `verify-sparse` has only one."""
    return 0 if workload == "verify-sparse" else seed % VARIANTS


def _amplitudes(v: int) -> dict:
    """Simulation amplitudes of variant v; v = 0 gives the default inputs."""
    amp = {"eps": 1e-5, "nu_eps": 1e-6, "nu_scale": 1.0, "stream_eps": 1e-3}
    if v:
        rng = random.Random(v)
        amp = {"eps": round(1e-5 * rng.uniform(0.5, 2.0), 10),
               "nu_eps": round(1e-6 * rng.uniform(0.5, 2.0), 11),
               "nu_scale": round(rng.uniform(0.95, 1.05), 4),
               "stream_eps": round(1e-3 * rng.uniform(0.5, 2.0), 8)}
    return amp


def _simulate(label: str, workdir: Path, nx: int, closure: dict, scheme: str,
              dt: float, nsteps: int, amp: dict, nu_base=(), method="spectral"):
    nu_base = [round(b * amp["nu_scale"], 6) for b in nu_base]
    initial = {"eps": amp["eps"]}
    if nu_base:
        initial.update(nu_base=nu_base, nu_eps=[amp["nu_eps"]] * len(nu_base))
    cfg = {"grid": {"L": TWO_PI, "nx": nx, "method": method},
           "closure": closure, "initial": initial,
           "integrator": {"scheme": scheme, "dt": dt, "t_end": round(dt * nsteps, 12)},
           "output": {"stride": 10}}
    path = workdir / f"{label}.json"
    return Command(label, ("simulate", "--config", str(path),
                           "--out", str(workdir / label), "--json"),
                   "simulate", nsteps, (path, json.dumps(cfg, indent=1)))


def build(workload: str, seed: int, workdir: Path) -> list[Command]:
    """The commands of `workload` for `seed`, reading their config files
    from `workdir` (see `write_configs`)."""
    v = variant(workload, seed)
    if workload == "verify-sparse":
        return [
            Command("verify.burby.L1-11", ("verify", "--family", "burby",
                                           "--levels", "1..11", "--json"), "report"),
            Command("verify.burby.L7-minus", ("verify", "--family", "burby", "--level",
                                              "7", "--branch", "minus", "--json"), "report"),
            Command("verify.multidelta.M5", ("verify", "--family", "multidelta",
                                             "--M", "5", "--json"), "report"),
            Command("verify.fourfield", ("verify", "--family", "fourfield",
                                         "--kappa", "1/2", "--json"), "report"),
            Command("verify.generic", ("verify", "--family", "generic", "--mu2",
                                       "nu1*nu3^2 + nu2^2*nu3", "--json"), "report"),
            Command("closure.show.fourfield", ("closure", "show", "--family", "fourfield",
                                               "--kappa", "1/2", "--nmax", "12"), "text"),
            Command("closure.casimir.burby6", ("closure", "casimir", "--family",
                                               "burby", "--level", "6"), "text"),
            Command("closure.eos.burby2", ("closure", "eos", "--family", "burby",
                                           "--level", "2", "--mu", "0.33,2.667"), "text"),
        ]
    if workload == "verify-dense":
        return [
            Command("verify.waterbag.N5", ("verify", "--family", "waterbag",
                                           "--heights", HEIGHTS_N5[v], "--json"), "report"),
            Command("verify.waterbag.N6", ("verify", "--family", "waterbag",
                                           "--heights", HEIGHTS_N6[v], "--json"), "report"),
        ]
    amp = _amplitudes(v)
    burby2 = {"family": "burby", "level": 2}
    burby4 = {"family": "burby", "level": 4}
    if workload == "simulate-nx64":
        cmds = [
            _simulate("simulate.nx64.cold-rk4", workdir, 64, {"family": "cold"},
                      "rk4", 0.01, 2000, amp),
            _simulate("simulate.nx64.burby2-rk4-spectral", workdir, 64, burby2,
                      "rk4", 0.01, 1000, amp, NU_BASE_BURBY2),
            _simulate("simulate.nx64.burby2-rk4-fd2", workdir, 64, burby2,
                      "rk4", 0.01, 1000, amp, NU_BASE_BURBY2, method="fd2"),
            _simulate("simulate.nx64.burby4-split", workdir, 64, burby4,
                      "split", 0.01, 500, amp, NU_BASE_BURBY4),
            _simulate("simulate.nx64.waterbag3-split", workdir, 64,
                      {"family": "waterbag", "heights": ["1", "1", "-2"]},
                      "split", 0.01, 500, amp, NU_BASE_WATERBAG3),
        ]
        cfg = {"grid": {"L": TWO_PI, "nx": 64},
               "streams": {"v0": 0.2, "eps": amp["stream_eps"]},
               "integrator": {"dt": 0.002, "t_end": 1.0}}
        path = workdir / "compare.nx64.two-stream.json"
        cmds.append(Command("compare.nx64.two-stream",
                            ("compare", "--config", str(path), "--json"), "report", 500,
                            (path, json.dumps(cfg, indent=1))))
        return cmds
    if workload == "simulate-nx16384":
        return [
            _simulate("simulate.nx16384.cold-rk4", workdir, 16384, {"family": "cold"},
                      "rk4", 2e-4, 100, amp),
            _simulate("simulate.nx16384.burby2-rk4", workdir, 16384, burby2,
                      "rk4", 2e-4, 100, amp, NU_BASE_BURBY2),
            _simulate("simulate.nx16384.burby4-split", workdir, 16384, burby4,
                      "split", 2e-4, 50, amp, NU_BASE_BURBY4),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(commands: list[Command]):
    for c in commands:
        if c.config:
            path, text = c.config
            path.write_text(text)


# Every command label of every workload, in workload order.
LABELS = tuple(c.label for w in WORKLOADS for c in build(w, 0, Path(".")))
