"""Command-line front end: verify | closure | simulate | compare.

`verify`, `simulate` and `compare` produce a Report (JSON schema 2) and
exit 0 iff all checks passed; `closure show|casimir|eos` print text and
take no `--json`. Everything in a report but its `timings` is
deterministic. Simulation/config schema is documented in docs/config.md.

`main(argv)` may be called many times in one process (the benchmark's
child process and the tests do): it builds the argument parser on its
first call, not at import, and parses each argv into a fresh namespace.

Only `simulate` and `compare` import the solver (`sim`) and numpy, inside
the functions that use them; `verify` and `closure` run on the exact
engine alone and start without either. Likewise the waterbag certificate
(`certificate`) loads only when a waterbag closure first proves itself.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import bracket
from .closures import (BurbyClosure, ClosureFamily, ColdClosure,
                       FourFieldClosure, GenericClosure, Metric,
                       MultiDeltaClosure, WaterbagClosure, _antidiag_metric,
                       closed_moments, multidelta_normal_map)
from .moments import p_from_mu
from .poly import MultiPoly, require_integer

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
                detail = f": {c['detail']}" if c["detail"] and not c["ok"] else ""
                print(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}{detail}")
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


# the keys each family takes, from a config or from the flags of the same names
_FAMILY_KEYS = {"multidelta": ("M",), "waterbag": ("heights",),
                "burby": ("level", "branch"), "fourfield": ("kappa",),
                "generic": ("mu2", "metric"), "cold": ()}


def closure_from_spec(spec: dict) -> ClosureFamily:
    """Build a closure family from a config dict {'family': ..., params}.

    Defaults: M = 2, level = 2 on branch 'plus', kappa = 0; waterbag needs
    a list 'heights' and generic a string 'mu2' in the variables
    nu1..nuk, k the metric's size, by default the highest index in mu2.
    Unknown keys, other variable names and values of the wrong type raise
    ValueError.
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
    top = max(map(int, re.findall(r"\bnu(\d+)\b", spec["mu2"])), default=0)
    metric = _metric_from_spec(spec.get("metric"), top)
    if metric.dim < top:
        raise ValueError("metric smaller than the variable count of mu2")
    mu2 = MultiPoly.parse(spec["mu2"], varnames=[f"nu{i + 1}" for i in range(metric.dim)])
    return GenericClosure(mu2, metric)


def _metric_from_spec(text, nvars: int) -> Metric:
    if text is None:
        return _antidiag_metric(nvars)
    if isinstance(text, str):
        text = [row.split(",") for row in text.split(";")]
    if not (isinstance(text, list) and all(isinstance(row, list) for row in text)):
        raise ValueError(f"metric must be a string or a list of rows, got {text!r}")
    return Metric([[_parse_fraction(v) for v in row] for row in text])


def _number(key: str, value) -> float:
    """`value` as a float: a number or a numeric string such as "1e-3".
    Anything else, `true` and `false` included (not read as 1.0 and 0.0),
    is refused with a message that names `key`."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{key} must be a number, got {value!r}")


def _numbers(key: str, value) -> list[float]:
    """The list `value` of numbers; a string is refused, not read one
    character at a time."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    return [_number(key, v) for v in value]


def _reject_unknown(d: dict, allowed, where: str):
    """Refuse `d` unless it is an object whose keys are among `allowed`."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {d!r}")
    if extra := set(d) - set(allowed):
        raise ValueError(f"unknown {where} keys: {sorted(extra)}")


def _spec_from_args(args) -> dict:
    """The closure spec of the family flags given, each under the config key
    of its name: `closure_from_spec` refuses a flag the family does not
    take as it refuses that key."""
    flags = {k: getattr(args, k) for keys in _FAMILY_KEYS.values() for k in keys}
    return {"family": args.family, **{k: v for k, v in flags.items() if v is not None}}


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
        spec = _spec_from_args(args)
        specs = ([spec] if args.levels is None else
                 [{**spec, "level": m} for m in _level_range(args.levels)])
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
            mu_obs = [_number("--mu", v) for v in args.mu.split(",")] if args.mu else []
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


def _as_is(name: str, value):
    """`value` unread: the library checks it where it takes it."""
    return value


def _read(block: str, cfg, key: str | None = None):
    """Read the config block `cfg` by its `_CONFIG` table: with `key`, that key by its
    reader, named "<block> <key>" (the bare key at a command's top level); without, `cfg`
    once its keys are checked, a block read whole, a top level left to be read by key."""
    top = block in ("simulate", "compare")
    where = "config" if top else block
    if key is None:
        _reject_unknown(cfg, _CONFIG[block], where)
        return cfg if top else {key: _read(block, cfg, key) for key in _CONFIG[block]}
    reader, default = _CONFIG[block][key]
    if key not in cfg and default is ...:
        raise ValueError(f"missing {where} key {key!r}")
    return reader(key if top else f"{block} {key}", cfg.get(key, default))


# Every key of the simulate and compare configs, {block: {key: (reader, default)}}.
# An absent key's default is read too; a key whose default is `...` is required.
# What `_as_is` passes on, the library checks: `sim.Grid`, `sim.step_count`,
# `closure_from_spec` and `_build_initial`.
_CONFIG = {
    "simulate": {"grid": (_read, ...), "closure": (_as_is, ...), "initial": (_read, {}),
                 "integrator": (_read, ...), "output": (_read, {})},
    "compare": {"grid": (_read, ...), "streams": (_read, {}), "integrator": (_read, ...),
                "tolerance": (_number, 1e-6)},
    "grid": {"L": (_number, ...), "nx": (_as_is, ...), "method": (_as_is, "spectral")},
    "initial": {"type": (_as_is, "single_mode"), "n0": (_number, 1.0), "eps": (_number, 1e-3),
                "u0": (_number, 0.0), "nu_base": (_numbers, []), "nu_eps": (_numbers, [])},
    "integrator": {"scheme": (_as_is, "rk4"), "dt": (_number, ...), "t_end": (_number, ...)},
    "output": {"stride": (_as_is, 1), "snapshots": (require_integer, 0)},
    "streams": {"n0": (_number, 1.0), "v0": (_number, 0.2), "eps": (_number, 1e-3)},
}


@contextlib.contextmanager
def _float_errors(block: str):
    """Raise numpy's overflow and invalid-value warnings inside as errors
    that name the config `block`: a finite value whose float64 work
    overflows is bad input, and the user is told where it is."""
    import numpy as np
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise FloatingPointError(f"{block}: {e}") from None


def _build_grid(**spec) -> sim.Grid:
    from . import sim
    grid = sim.Grid(**spec)
    with _float_errors("grid"):
        # what L alone decides: the starts' cosine mode (a huge L overflows
        # its phase) and the spectral tables (a tiny one overflows k^2)
        grid.mode, grid.ik, grid.k2
    return grid


def _build_initial(grid: sim.Grid, closure: ClosureFamily, type: str, **start) -> sim.FieldState:
    from . import sim
    if type != "single_mode":
        raise ValueError(f"unknown initial condition {type!r}")
    with _float_errors("initial"):
        return _checked_start(sim.single_mode_state(grid, closure, **start), closure, grid)


def _checked_start(state: sim.FieldState, closure: ClosureFamily,
                   grid: sim.Grid) -> sim.FieldState:
    """`state`, once it passes the solver's own state check and its first
    record and rates are computed, all of which would otherwise fail the
    run at its first step. Called inside `_float_errors`, so that a start
    whose record or rates overflow float64 is refused, not warned about."""
    from . import sim
    try:
        sim._check_state(state)
        sim.diagnostics(state, closure, grid)
        sim.rhs_fluid(state, closure, grid)
    except sim.SimulationError as e:
        raise ValueError(f"initial state: {e}") from None
    return state


def _build_streams(grid: sim.Grid, n0: float, v0: float, eps: float):
    """The two-stream state of the `streams` block, whose stream densities
    n0 (1 +- eps cos(2 pi x / L)) / 2 must be positive (NaN fails every test),
    the two-stream multi-delta closure and the fluid state it maps to."""
    import numpy as np

    from . import sim
    if not (0 < n0 < math.inf and math.isfinite(v0) and abs(eps) < 1):
        raise ValueError("streams need a finite n0 > 0, a finite v0 and |eps| < 1, "
                         f"got n0 = {n0}, v0 = {v0}, eps = {eps}")
    with _float_errors("streams"):
        s_s = sim.two_stream_state(grid, n0=n0, v0=v0, eps=eps)
        rho, u, xi, eta = multidelta_normal_map(list(s_s.a), list(s_s.v))
        md = MultiDeltaClosure(2)
        s_f = sim.FieldState(rho, u, np.array([xi[0], eta[0]]), s_s.n0)
        return s_s, md, _checked_start(s_f, md, grid)


def cmd_simulate(args) -> int:
    from . import sim
    rep = Report("simulate")
    with _refuse("config error"):
        cfg = _read("simulate", json.loads(Path(args.config).read_text()))
        grid = _build_grid(**_read("simulate", cfg, "grid"))
        closure = closure_from_spec(_read("simulate", cfg, "closure"))
        state = _build_initial(grid, closure, **_read("simulate", cfg, "initial"))
        run = _read("simulate", cfg, "integrator")
        stride, snapshots = map(_read("simulate", cfg, "output").get, ("stride", "snapshots"))
        sim.step_count(**run, stride=stride)
        if snapshots < 0:
            raise ValueError(f"output needs snapshots >= 0, got snapshots = {snapshots}")
    outdir = _out_dir(args.out, "snapshots")
    snapdir = outdir / "snapshots"
    count = [0]

    def on_record(s, rec):
        count[0] += 1
        if snapshots and count[0] % snapshots == 0:
            sim.write_snapshot(snapdir / f"snap_{count[0]:06d}.npz", s)

    try:
        result = sim.run_fluid(state, closure, grid, **run, stride=stride, on_record=on_record)
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
        cfg = _read("compare", json.loads(Path(args.config).read_text()))
        grid = _build_grid(**_read("compare", cfg, "grid"))
        s_s, md, s_f = _build_streams(grid, **_read("compare", cfg, "streams"))
        run = _read("compare", cfg, "integrator")
        nsteps = sim.step_count(**run)
        tol = _read("compare", cfg, "tolerance")
        if not 0 < tol < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {tol}")
    outdir = _out_dir(args.out)
    broke = None
    work = sim.Workspace()  # one for both steppers: their steps never overlap
    try:
        for _ in range(nsteps):
            s_f = sim.step(s_f, md, grid, run["dt"], scheme=run["scheme"], work=work)
            s_s = sim.step_streams(s_s, grid, run["dt"], work=work)
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
        # where the streams' P_k vanish (streams at rest) the deviation is absolute
        scale = np.max(np.abs(Ps))
        dev = float(np.max(np.abs(Pf - Ps)) / (scale or 1.0))
        rep.add(f"P_{k} max relative deviation < {tol}", dev < tol,
                f"{dev:.2e}" + ("" if scale else " (absolute: P_k = 0)"))
    rep.add("no wave breaking in window", broke is None, broke or "")
    return rep.emit(args.json, outdir)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_family_flags(p):
    p.add_argument("--family", required=True, choices=list(_FAMILY_KEYS))
    p.add_argument("--level", type=int, help="level m (burby)")
    p.add_argument("--levels", help="level range lo..hi (burby)")
    p.add_argument("--M", type=int, help="stream count (multidelta)")
    p.add_argument("--heights", type=lambda v: v.split(","),
                   help="comma-separated waterbag heights")
    p.add_argument("--kappa", help="four-field parameter")
    p.add_argument("--mu2", help="generating cubic, e.g. 'nu1^2*nu2'")
    p.add_argument("--metric", help="metric rows, e.g. '0,1;1,0'")
    p.add_argument("--branch", choices=["plus", "minus"], help="odd-level branch (burby)")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    by every later `main` call of the process."""
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

    for name, fn, text in (("simulate", cmd_simulate, "run a configured simulation"),
                           ("compare", cmd_compare, "fluid vs multi-stream oracle comparison")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=name == "simulate")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except _Refused as e:
        print(e, file=sys.stderr)
        return 2
    except MemoryError:
        # too much exact work asked for (say, a large --nmax or a generic
        # closure in many variables): one line, not a traceback
        print("error: out of memory; ask for less work", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): drop the rest of the output
        # quietly, including the flush at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
