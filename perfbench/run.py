"""Benchmark of the hydroclosures CLI: four workloads, end-to-end metrics and
a traced per-layer breakdown.

    python3 perfbench/run.py --workload verify-sparse --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports `src/hydroclosures`.
Each pass of a workload is one fresh child process (child.py) that runs the
workload's commands one after another through `hydroclosures.cli.main`: a
closed loop with a single client, with BLAS/OpenMP pinned to one thread.
Passes run in sequence until --seconds is spent: at least one, and with
--trace 1 traced and plain passes alternate, at least two traced and one
plain. Every
output is checked against the references in refs/ (see make_refs.py).
The gated times are scaled to a reference host speed by probe.py, because
the host's speed drifts; the raw times are printed too (see README.md).

Prints every metric with its unit and sample count (the per-layer ones
only with --trace 1), then, as the last line, one JSON object: the gated
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run, hung children included, ends within this
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

# Per-layer metrics: (name, unit, where a traced pass holds it).
# ("calls"|"self_s"|"s", span name) read the span totals of tracing.py,
# ("counts", key) its counters.
LAYER_METRICS = [
    ("poly.mul.calls", "count", ("calls", "poly.mul")),
    ("poly.mul.self_s", "s", ("self_s", "poly.mul")),
    ("poly.pow.calls", "count", ("calls", "poly.pow")),
    ("poly.pow.self_s", "s", ("self_s", "poly.pow")),
    ("poly.max_terms", "count", ("counts", "poly.max_terms")),
    ("poly.init.calls", "count", ("counts", "poly.init.calls")),
    ("poly.diff.calls", "count", ("calls", "poly.diff")),
    ("poly.diff.self_s", "s", ("self_s", "poly.diff")),
    ("poly.eval_float.calls", "count", ("calls", "poly.eval_float")),
    ("poly.eval_float.s", "s", ("s", "poly.eval_float")),
    ("closures.mu.calls", "count", ("calls", "closures.mu")),
    ("closures.mu.self_s", "s", ("self_s", "closures.mu")),
    ("closures.mu.hit_ratio", "ratio", ("mu_hit_ratio", None)),
    ("closures.waterbag_s.s", "s", ("s", "closures.waterbag_s")),
    ("closures.invert.s", "s", ("s", "closures.invert")),
    ("moments.entries", "count", ("counts", "moments.entries")),
    ("moments.alpha_beta.self_s", "s", ("self_s", "moments.alpha_beta")),
    ("bracket.identities", "count", ("counts", "bracket.identities")),
    ("bracket.flatness.self_s", "s", ("self_s", "bracket.flatness")),
    ("ratmat.calls", "count", ("calls", "ratmat")),
    ("ratmat.s", "s", ("s", "ratmat")),
    ("sim.step.calls", "count", ("calls", "sim.step")),
    ("sim.step.p50_ms", "ms", ("step_ms", 0.50)),
    ("sim.step.p99_ms", "ms", ("step_ms", 0.99)),
    ("sim.rhs.calls", "count", ("calls", "sim.rhs")),
    ("sim.field_solve.calls", "count", ("calls", "sim.field_solve")),
    ("sim.field_solve.s", "s", ("s", "sim.field_solve")),
    ("sim.deriv.calls", "count", ("calls", "sim.deriv")),
    ("sim.deriv.s", "s", ("s", "sim.deriv")),
    ("sim.fft.calls", "count", ("counts", "sim.fft.calls")),
    ("sim.fft.points", "count", ("counts", "sim.fft.points")),
    ("sim.tables.s", "s", ("s", "sim.tables")),
    ("sim.diagnostics.calls", "count", ("calls", "sim.diagnostics")),
    ("sim.diagnostics.s", "s", ("s", "sim.diagnostics")),
    ("sim.cfl.calls", "count", ("calls", "sim.cfl")),
    ("sim.streams.s", "s", ("s", "sim.streams")),
    ("sim.io.bytes", "bytes", ("counts", "sim.io.bytes")),
    ("sim.io.s", "s", ("s", "sim.io")),
    ("cli.cfl_warnings", "count", ("cfl_warnings", None)),
] + [(f"cli.cmd.{label}.s", "s", ("cmd_s", label)) for label in workloads.LABELS] + [
    ("trace.overhead", "ratio", ("overhead", None)),
]

# Metrics that count work; they must repeat exactly between traced passes.
DETERMINISTIC_SUFFIXES = (".calls", ".identities", ".entries", ".max_terms",
                          ".hit_ratio", ".points", ".bytes", ".cfl_warnings")


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, workdir: Path, mode: str,
              deadline: float) -> dict:
    """One pass in a fresh interpreter, killed at `deadline` (monotonic);
    adds its set-up time: child spawned -> inputs ready."""
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(out), workload, str(seed),
             str(workdir), mode],
            env={**os.environ, **CHILD_ENV}, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as e:
        raise ChildFailed(f"{mode} pass still running after {RUN_LIMIT_S} s of run") from e
    if proc.returncode != 0 or not out.exists():
        raise ChildFailed(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready"] - t0
    return result


def evaluate(outcomes: dict, refs: dict) -> tuple[int, int, int, list[str]]:
    """Compare one pass's outcomes with the references.

    An operation is one report check, one diagnostics.csv digest or one
    printed text. Returns (attempted, failed, failed apart from the known
    defects, descriptions of the failures). A known defect is a check that
    the reference itself records as failed."""
    attempted = failed = unexpected = 0
    problems = []

    def op(ok: bool, what: str, known: bool = False):
        nonlocal attempted, failed, unexpected
        attempted += 1
        if not ok:
            failed += 1
            unexpected += not known
            problems.append(what + (" (known defect)" if known else ""))

    for label, ref in refs.items():
        got = outcomes.get(label, {})
        if "stdout" in ref:
            op(got.get("stdout") == ref["stdout"], f"{label}: output differs from reference")
            continue
        checks = dict(got.get("checks", []))
        for name, ref_ok in ref["checks"]:
            op(checks.get(name) is True, f"{label}: {name}",
               known=not ref_ok and name in checks)
        for name, ok in checks.items():
            if name not in dict(ref["checks"]):
                op(ok, f"{label}: {name} (not in reference)")
        if "sha256" in ref:
            op(got.get("sha256") == ref["sha256"], f"{label}: diagnostics.csv differs")
    return attempted, failed, unexpected, problems


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    values = sorted(values)
    return values[max(0, math.ceil(q * len(values)) - 1)] if values else 0.0


def layer_values(traced: dict, cmd_s: dict, overhead: float) -> dict:
    layers = traced["layers"]
    out = {}
    for name, _, (where, key) in LAYER_METRICS:
        if where in ("calls", "self_s", "s", "counts"):
            value = layers[where].get(key, 0)
        elif where == "step_ms":
            value = 1e3 * _percentile(layers["step_s"], key)
        elif where == "mu_hit_ratio":
            value = layers["mu_hit_ratio"]
        elif where == "cfl_warnings":
            value = traced["cfl_warnings"]
        elif where == "cmd_s":
            value = cmd_s.get(key, 0.0)
        else:
            value = overhead
        out[name] = value
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [run_child(workload, seed, workdir / f"setup-{i}", "setup", deadline)
              for i in range(SETUP_SAMPLES)]
    pattern = ["traced", "plain"] if trace else ["plain"]
    min_passes = 3 if trace else 1  # a traced run needs two traced passes and a plain one
    passes = []
    t0 = time.monotonic()
    while True:
        mode = pattern[len(passes) % len(pattern)]
        passes.append(run_child(workload, seed, workdir / f"pass-{len(passes)}", mode,
                                deadline))
        elapsed = time.monotonic() - t0
        if len(passes) >= min_passes and elapsed + elapsed / len(passes) > seconds:
            break
    return setups + passes, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hydroclosures" / "__init__.py").is_file():
        print(f"error: no hydroclosures sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    v = workloads.variant(args.workload, args.seed)
    refs_path = HERE / "refs" / f"{args.workload}.json"
    try:
        refs = json.loads(refs_path.read_text())[str(v)]
    except (OSError, KeyError, ValueError):
        print(f"error: no reference for {args.workload} variant {v} in {refs_path}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        children, passes = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), workdir)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = failed = unexpected = 0
    problems: set[str] = set()
    for p in passes:
        a, f, u, why = evaluate(p["outcomes"], refs)
        attempted, failed, unexpected = attempted + a, failed + f, unexpected + u
        problems.update(why)

    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    # Gated times are scaled to the probe's reference speed (probe.py); the
    # raw ones are printed after them.
    setups = [c["setup_s"] * probe.REFERENCE_S / c["probes"][0] for c in children]
    rows = [  # (name, value, unit, samples)
        ("wall_s", statistics.median(p["scaled_wall_s"] for p in plain), "s", len(plain)),
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("peak_rss_mb", statistics.median(p["peak_rss_mb"] for p in plain), "MB", len(plain)),
        ("error_rate", failed / attempted, "ratio", attempted),
    ]
    if any(p["steps"] for p in plain):
        rows.append(("steps_per_s",
                     statistics.median(p["steps"] / p["scaled_sim_s"] for p in plain),
                     "1/s", len(plain)))
    probes = [t for c in children for t in c["probes"]]
    rows += [("wall_raw_s", statistics.median(p["wall_s"] for p in plain), "s", len(plain)),
             ("setup_raw_s", statistics.median(c["setup_s"] for c in children), "s",
              len(children)),
             ("probe_ratio", statistics.median(probes) / probe.REFERENCE_S, "ratio",
              len(probes))]
    # the JSON carries the metrics that exist and are never 0 on every workload
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows[:3]}

    deterministic = True
    if traced:
        cmd_s = {label: statistics.median(p["cmd_s"][label] for p in plain)
                 for label in plain[0]["cmd_s"]}
        # scaled, so that a drift of the host between the passes cancels
        overhead = (statistics.median(p["scaled_wall_s"] for p in traced)
                    / statistics.median(p["scaled_wall_s"] for p in plain))
        per_pass = [layer_values(p, cmd_s, overhead) for p in traced]
        metrics = {}
        for name, unit, _ in LAYER_METRICS:
            values = [d[name] for d in per_pass]
            if name.endswith(DETERMINISTIC_SUFFIXES) and len(set(values)) > 1:
                deterministic = False
                problems.add(f"{name} differs between traced passes: {values}")
            value = values[0] if name.endswith(DETERMINISTIC_SUFFIXES) \
                else statistics.median(values)
            samples = len(plain) if name.startswith("cli.cmd.") else len(values)
            rows.append((name, value, unit, samples))
            metrics[name] = {"value": value, "unit": unit}

    print(f"workload {args.workload}  seed {args.seed} (input variant {v})  "
          f"trace {args.trace}  passes: {len(plain)} plain, {len(traced)} traced")
    print(f"{'metric':<44} {'value':>14}  {'unit':<6} samples")
    for name, value, unit, samples in rows:
        print(f"{name:<44} {value:>14.6g}  {unit:<6} {samples}")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"({failed - unexpected} known defect)")
    for line in sorted(problems):
        print(f"  failed: {line}")
    print(json.dumps({"correct": unexpected == 0 and deterministic,
                      "attempted": attempted, "failed": unexpected, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
