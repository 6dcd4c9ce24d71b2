"""Command-line front end: verify | closure | simulate | compare.

Every subcommand produces a Report (JSON schema 2) and exits 0 iff all
checks passed. Everything in a report but its `timings` is deterministic.
Simulation/config schema is documented in docs/config.md.

Only `simulate` and `compare` import the solver (`sim`) and numpy, inside
the functions that use them; `verify` and `closure` run on the exact
engine alone and start without either. Likewise the waterbag certificate
(`certificate`) loads only when a waterbag closure first proves itself.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import bracket
from .closures import (BurbyClosure, ClosureFamily, ColdClosure,
                       FourFieldClosure, GenericClosure, Metric,
                       MultiDeltaClosure, WaterbagClosure, closed_moments,
                       multidelta_normal_map, require_integer)
from .moments import p_from_mu
from .poly import MultiPoly

if TYPE_CHECKING:  # for annotations only; the commands import sim themselves
    from . import sim


class Report:
    def __init__(self, command: str):
        self.command = command
        self.checks: list[dict] = []
        self.phases: dict[str, float] = {}
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def phase(self, name: str):
        """Add the seconds the block takes to `timings[name]`."""
        t = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def as_dict(self) -> dict:
        timings = {"wall_time": time.perf_counter() - self._t0, **self.phases}
        return {"schema": 2, "command": self.command, "ok": self.ok,
                "checks": self.checks,
                "timings": {k: round(v, 6) for k, v in timings.items()}}

    def emit(self, as_json: bool, out: Path | None = None) -> int:
        doc = self.as_dict()
        if out is not None:  # made by `_out_dir` before the command's work
            (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n")
        if as_json:
            print(json.dumps(doc, indent=2))
        else:
            for c in self.checks:
                mark = "PASS" if c["ok"] else "FAIL"
                line = f"[{mark}] {c['name']}"
                if c["detail"] and not c["ok"]:
                    line += f": {c['detail']}"
                print(line)
            print(f"{'OK' if self.ok else 'FAILED'} "
                  f"({sum(c['ok'] for c in self.checks)}/{len(self.checks)} checks)")
        return 0 if self.ok else 1


# ---------------------------------------------------------------------------
# Closure construction from flags / config
# ---------------------------------------------------------------------------


# the exceptions that mean bad input: one line on stderr, exit 2, no traceback
_BAD_INPUT = (KeyError, OSError, TypeError, ValueError, ArithmeticError)


class _Refused(Exception):
    """Bad input, with its message: `main` prints it and returns 2."""


@contextlib.contextmanager
def _refuse(prefix: str):
    """Re-raise a bad-input exception of the block as `_Refused`, after `prefix`."""
    try:
        yield
    except _BAD_INPUT as e:
        raise _Refused(f"{prefix}: {e}") from None


def _parse_fraction(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid rational {str(s)!r}") from None


# the keys each family takes; the CLI drops the flags a family does not take
_FAMILY_KEYS = {"multidelta": ("M",), "waterbag": ("heights",),
                "burby": ("level", "branch"), "fourfield": ("kappa",),
                "generic": ("mu2", "metric"), "cold": ()}


def closure_from_spec(spec: dict) -> ClosureFamily:
    """Build a closure family from a config dict {'family': ..., params}.

    Defaults: M = 2, level = 2 on branch 'plus', kappa = 0; waterbag needs
    a list 'heights' and generic a string 'mu2'. Unknown keys and values
    of the wrong type raise ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"closure must be an object, got {spec!r}")
    family = spec.get("family")
    if not isinstance(family, str) or family not in _FAMILY_KEYS:
        raise ValueError(f"unknown closure family {family!r}")
    _reject_unknown(spec, ("family", *_FAMILY_KEYS[family]), "closure")
    if family == "cold":
        return ColdClosure()
    if family == "multidelta":
        return MultiDeltaClosure(spec.get("M", 2))
    if family == "burby":
        return BurbyClosure(spec.get("level", 2), branch=spec.get("branch", "plus"))
    if family == "fourfield":
        return FourFieldClosure(_parse_fraction(spec.get("kappa", 0)))
    if family == "waterbag":
        if not isinstance(spec.get("heights"), list):
            raise ValueError(f"waterbag needs a list 'heights', got {spec.get('heights')!r}")
        return WaterbagClosure([_parse_fraction(h) for h in spec["heights"]])
    if not isinstance(spec.get("mu2"), str):
        raise ValueError(f"generic needs a string 'mu2', got {spec.get('mu2')!r}")
    mu2 = MultiPoly.parse(spec["mu2"])
    metric = _metric_from_spec(spec.get("metric"), mu2.nvars)
    if metric.dim < mu2.nvars:
        raise ValueError("metric smaller than the variable count of mu2")
    if metric.dim > mu2.nvars:
        mu2 = MultiPoly.parse(spec["mu2"],
                              varnames=[f"nu{i + 1}" for i in range(metric.dim)])
    return GenericClosure(mu2, metric)


def _metric_from_spec(text, nvars: int) -> Metric:
    if text is None:  # default: antidiagonal ones
        return Metric([[int(i + j == nvars - 1) for j in range(nvars)]
                       for i in range(nvars)])
    if isinstance(text, str):
        text = [row.split(",") for row in text.split(";")]
    if not (isinstance(text, list) and all(isinstance(row, list) for row in text)):
        raise ValueError(f"metric must be a string or a list of rows, got {text!r}")
    return Metric([[_parse_fraction(v) for v in row] for row in text])


def _reject_unknown(d: dict, allowed, where: str):
    """Refuse `d` unless it is an object whose keys are among `allowed`."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {d!r}")
    extra = set(d) - set(allowed)
    if extra:
        raise ValueError(f"unknown {where} keys: {sorted(extra)}")


def _spec_from_args(args) -> dict:
    """The closure spec of the family flags; --level doubles as the stream
    count of multidelta, and flags the family does not take are ignored."""
    flags = {"M": args.M if args.M is not None else args.level,
             "level": args.level, "branch": args.branch, "kappa": args.kappa,
             "heights": args.heights.split(",") if args.heights else None,
             "mu2": args.mu2, "metric": args.metric}
    return {"family": args.family,
            **{k: flags[k] for k in _FAMILY_KEYS[args.family]
               if flags[k] not in (None, "")}}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_one(closure: ClosureFamily, rep: Report):
    name = closure.name
    with rep.phase("flatness"):
        fl = closure.flatness()
    rep.add(f"{name}: flatness identities", fl.ok,
            "; ".join(f"{c.name}: {c.residual}" for c in fl.failures()[:3]))
    if closure.nu_count:
        # the entry formulas make every closure's bracket antisymmetric, flat
        # or not (the lemma of docs/waterbag_certificate.md)
        rep.add(f"{name}: bracket antisymmetry", True)
        # a closure is never built on a degenerate metric
        rep.add(f"{name}: metric nondegenerate (signature {closure.metric.signature})", True)
    with rep.phase("identities"):
        identities = closure.identities()
    for check, ok, detail in identities:
        rep.add(f"{name}: {check}", ok, detail)


def _level_range(text: str) -> range:
    """The levels of `--levels lo..hi`, lo <= hi."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        sep = ""
    if not sep or lo > hi:
        raise ValueError(f"--levels expects lo..hi with integers lo <= hi, got {text!r}")
    return range(lo, hi + 1)


def _check_levels(args):
    """--levels takes the place of --level in `verify --family burby` only;
    anywhere else it would be silently dropped."""
    if args.levels is None:
        return
    if (args.cmd, args.family) != ("verify", "burby"):
        raise ValueError("--levels applies to verify --family burby only, "
                         f"not to {args.cmd} --family {args.family}")
    if args.level is not None:
        raise ValueError("--levels replaces --level: give one, not both")


def _out_dir(out: str | None, *subdirs: str) -> Path | None:
    """The --out directory with its `subdirs`, made before a command's work,
    so that one that cannot be made (it names a file, say) ends it at once."""
    with _refuse("error: cannot make the --out directory"):
        for d in ("", *subdirs) if out is not None else ():
            (Path(out) / d).mkdir(parents=True, exist_ok=True)
    return None if out is None else Path(out)


def cmd_verify(args) -> int:
    rep = Report("verify")
    with _refuse("error"):
        _check_levels(args)
        specs = ([_spec_from_args(args)] if args.levels is None else
                 [{"family": "burby", "level": m, "branch": args.branch}
                  for m in _level_range(args.levels)])
        outdir = _out_dir(args.out)
        for spec in specs:
            _verify_one(closure_from_spec(spec), rep)
    return rep.emit(args.json, outdir)


# ---------------------------------------------------------------------------
# closure show / casimir / eos
# ---------------------------------------------------------------------------


def cmd_closure(args) -> int:
    with _refuse("error"):
        _check_levels(args)
        closure = closure_from_spec(_spec_from_args(args))
        if args.action == "show" and args.nmax is not None and args.nmax < 1:
            raise ValueError(f"--nmax must be >= 1, got {args.nmax}")
    names = closure.nu_names
    if args.action == "show":
        nmax = args.nmax or max(2 * closure.nu_count + 1, 2)
        for n in range(1, nmax + 1):
            print(f"mu_{n} = {closure.mu(n).to_text(names)}")
        return 0
    if args.action == "casimir":
        print("Casimir densities:")
        for d in bracket.casimirs(closure):
            print(f"  {d.kind}: {d.description}")
        if isinstance(closure, BurbyClosure):
            _, mus, back = closure.sample_round_trip()
            print(f"sample point: mu = {mus}")
            print(f"recovered nu = {[round(v, 12) for v in back]}")
        return 0
    if args.action == "eos":
        with _refuse("error"):
            if not args.mu and closure.nu_count:
                raise ValueError("eos needs --mu")
            mu_obs = [float(v) for v in args.mu.split(",")] if args.mu else []
            if not all(map(math.isfinite, mu_obs)):
                raise ValueError(f"--mu values must be finite, got {args.mu}")
            nu = closure.invert(mu_obs)
            closed = closed_moments(closure, nu)
        print(f"nu = {[round(float(v), 12) for v in nu]}")
        print("closed moments:",
              [round(float(v), 12) for v in closed])
        return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIMULATE_KEYS = ("grid", "closure", "initial", "integrator", "output")
_COMPARE_KEYS = ("grid", "streams", "integrator", "tolerance")
_GRID_KEYS = ("L", "nx", "method")
_INTEGRATOR_KEYS = ("scheme", "dt", "t_end")
_INITIAL_KEYS = ("type", "n0", "eps", "u0", "nu_base", "nu_eps")
_OUTPUT_KEYS = ("stride", "snapshots")


def load_config(path, keys) -> dict:
    """The JSON config at `path`; its top-level keys must be among `keys`."""
    cfg = json.loads(Path(path).read_text())
    _reject_unknown(cfg, keys, "config")
    return cfg


def _build_run(cfg: dict) -> tuple[str, float, float, int, int]:
    """(scheme, dt, t_end, stride, snapshots) of the `integrator` and
    `output` blocks, checked so that a run takes a step of a known scheme."""
    integ, output = cfg["integrator"], cfg.get("output", {})
    _reject_unknown(integ, _INTEGRATOR_KEYS, "integrator")
    _reject_unknown(output, _OUTPUT_KEYS, "output")
    scheme = integ.get("scheme", "rk4")
    dt, t_end = float(integ["dt"]), float(integ["t_end"])
    stride = require_integer("output stride", output.get("stride", 1))
    snapshots = require_integer("output snapshots", output.get("snapshots", 0))
    if scheme not in ("rk4", "split"):
        raise ValueError(f"integrator scheme must be 'rk4' or 'split', got {scheme!r}")
    # a run takes round(t_end / dt) steps; NaN fails every comparison
    if not (0 < dt < math.inf and 0.5 < t_end / dt < math.inf):
        raise ValueError("integrator needs a finite dt > 0 and a finite t_end > dt/2, "
                         f"got dt = {dt}, t_end = {t_end}")
    if stride < 1 or snapshots < 0:
        raise ValueError("output needs stride >= 1 and snapshots >= 0, "
                         f"got stride = {stride}, snapshots = {snapshots}")
    return scheme, dt, t_end, stride, snapshots


def _build_grid(spec: dict) -> sim.Grid:
    from . import sim
    _reject_unknown(spec, _GRID_KEYS, "grid")
    return sim.Grid(L=float(spec["L"]), nx=spec["nx"], method=spec.get("method", "spectral"))


def _build_initial(spec: dict, grid: sim.Grid, closure: ClosureFamily) -> sim.FieldState:
    from . import sim
    _reject_unknown(spec, _INITIAL_KEYS, "initial")
    if spec.get("type", "single_mode") != "single_mode":
        raise ValueError(f"unknown initial condition {spec.get('type')!r}")
    return _checked_start(sim.single_mode_state(
        grid, closure,
        n0=float(spec.get("n0", 1.0)), eps=float(spec.get("eps", 1e-3)),
        u0=float(spec.get("u0", 0.0)),
        nu_base=[float(v) for v in spec.get("nu_base", [])],
        nu_eps=[float(v) for v in spec.get("nu_eps", [])]))


def _checked_start(state: sim.FieldState) -> sim.FieldState:
    """`state`, once it passes the solver's own state check, which would
    otherwise fail the run at its first step."""
    from . import sim
    try:
        sim._check_state(state)
    except sim.SimulationError as e:
        raise ValueError(f"initial state: {e}") from None
    return state


def _build_streams(spec: dict, grid: sim.Grid) -> sim.StreamState:
    """The two-stream state of the `streams` block, whose stream densities
    n0 (1 +- eps cos(2 pi x / L)) / 2 must be positive (NaN fails every test)."""
    from . import sim
    _reject_unknown(spec, ("n0", "v0", "eps"), "streams")
    n0, v0, eps = (float(spec.get("n0", 1.0)), float(spec.get("v0", 0.2)),
                   float(spec.get("eps", 1e-3)))
    if not (0 < n0 < math.inf and math.isfinite(v0) and abs(eps) < 1):
        raise ValueError("streams need a finite n0 > 0, a finite v0 and |eps| < 1, "
                         f"got n0 = {n0}, v0 = {v0}, eps = {eps}")
    return sim.two_stream_state(grid, n0=n0, v0=v0, eps=eps)


def cmd_simulate(args) -> int:
    from . import sim
    rep = Report("simulate")
    with _refuse("config error"):
        cfg = load_config(args.config, _SIMULATE_KEYS)
        grid = _build_grid(cfg["grid"])
        closure = closure_from_spec(cfg["closure"])
        state = _build_initial(cfg.get("initial", {}), grid, closure)
        scheme, dt, t_end, stride, snapshots = _build_run(cfg)
    outdir = _out_dir(args.out, "snapshots")
    snapdir = outdir / "snapshots"
    count = [0]

    def on_record(s, rec):
        count[0] += 1
        if snapshots and count[0] % snapshots == 0:
            sim.write_snapshot(snapdir / f"snap_{count[0]:06d}.npz", s)

    try:
        result = sim.run_fluid(state, closure, grid, dt=dt, t_end=t_end,
                               scheme=scheme, stride=stride, on_record=on_record)
    except sim.SimulationError as e:
        rep.add("run completed", False, str(e))
        return rep.emit(args.json, outdir)
    sim.write_diagnostics_csv(outdir / "diagnostics.csv", result.records)
    sim.write_snapshot(snapdir / "final.npz", result.final)
    rep.add("run completed", True, f"{len(result.records)} records")
    r0 = result.records[0]

    def add_drift(name, get, scale):
        d = max(abs(get(r) - get(r0)) for r in result.records) / max(abs(scale), 1e-30)
        rep.add(f"{name} drift < 1e-6", d < 1e-6, f"{d:.2e}")

    add_drift("H", lambda r: r.H, r0.H)
    add_drift("mass", lambda r: r.C_mass, r0.C_mass)
    for k in range(closure.nu_count):
        add_drift(f"C_{k + 1}", lambda r, k=k: r.C_nu[k], r0.C_nu[k] or r0.C_mass)
    return rep.emit(args.json, outdir)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    import numpy as np

    from . import sim
    rep = Report("compare")
    with _refuse("config error"):
        cfg = load_config(args.config, _COMPARE_KEYS)
        grid = _build_grid(cfg["grid"])
        s_s = _build_streams(cfg.get("streams", {}), grid)
        scheme, dt, t_end, _, _ = _build_run(cfg)
        tol = float(cfg.get("tolerance", 1e-6))
        if not 0 < tol < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {tol}")
        rho, u, xi, eta = multidelta_normal_map(list(s_s.a), list(s_s.v))
        s_f = _checked_start(sim.FieldState(rho, u, np.array([xi[0], eta[0]]), s_s.n0))
    outdir = _out_dir(args.out)
    md = MultiDeltaClosure(2)
    broke = None
    work = sim.Workspace()  # one for both steppers: their steps never overlap
    try:
        for _ in range(int(round(t_end / dt))):
            s_f = sim.step(s_f, md, grid, dt, scheme=scheme, work=work)
            s_s = sim.step_streams(s_s, grid, dt, work=work)
            sim.check_wave_breaking(s_s, grid)
    except sim.WaveBreakError as e:
        broke = str(e)  # the comparison up to the break still holds
    except sim.SimulationError as e:
        rep.add("run completed", False, str(e))
        return rep.emit(args.json, outdir)
    nuv = list(s_f.nu)
    mu_vals = [md.mu_value(k, nuv) for k in range(1, 4)]
    psi = s_f.u - s_f.rho * mu_vals[0]
    P_fluid = p_from_mu(s_f.rho, psi, mu_vals)
    P_stream = [np.sum(s_s.a * s_s.v ** k, axis=0) for k in range(4)]
    for k, (Pf, Ps) in enumerate(zip(P_fluid, P_stream)):
        dev = float(np.max(np.abs(Pf - Ps)) / np.max(np.abs(Ps)))
        rep.add(f"P_{k} max relative deviation < {tol}", dev < tol, f"{dev:.2e}")
    rep.add("no wave breaking in window", broke is None, broke or "")
    return rep.emit(args.json, outdir)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_family_flags(p):
    p.add_argument("--family", required=True, choices=list(_FAMILY_KEYS))
    p.add_argument("--level", type=int, help="level m (burby) / stream count")
    p.add_argument("--levels", help="level range lo..hi (burby)")
    p.add_argument("--M", type=int, help="stream count (multidelta)")
    p.add_argument("--heights", help="comma-separated waterbag heights")
    p.add_argument("--kappa", help="four-field parameter")
    p.add_argument("--mu2", help="generating cubic, e.g. 'nu1^2*nu2'")
    p.add_argument("--metric", help="metric rows, e.g. '0,1;1,0'")
    p.add_argument("--branch", choices=["plus", "minus"], default="plus")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="hydroclosures")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="run the exact-identity suite")
    _add_family_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("closure", help="inspect closure polynomials")
    p.add_argument("action", choices=["show", "casimir", "eos"])
    _add_family_flags(p)
    p.add_argument("--nmax", type=int)
    p.add_argument("--mu", help="observed moments mu_1..mu_(N-2), comma-separated")
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("simulate", help="run a configured simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="fluid vs multi-stream oracle comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compare)

    args = ap.parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except _Refused as e:
        print(e, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): drop the rest of the output
        # quietly, including the flush at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
