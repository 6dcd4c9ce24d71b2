"""One pass of a workload in a fresh interpreter.

Run by run.py, never by hand:

    python3 perfbench/child.py RESULT.json WORKLOAD SEED WORKDIR MODE

MODE is `setup` (import the package, generate the inputs and stop), `plain`
(run every command) or `traced` (run every command with the wrappers of
tracing.py installed). probe.py timings follow set-up and every command,
and sample plain passes while each command runs. The pass writes its
measurements, raw and scaled by the probe, and the raw outcome of each
command to RESULT.json; run.py compares outcomes with the references.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hydroclosures import cli  # noqa: E402

import probe  # noqa: E402
import workloads  # noqa: E402


def _outcome(cmd, stdout: str) -> dict:
    """What the references record of one command: report checks as
    [name, ok] pairs, the diagnostics.csv digest, or the printed text."""
    if cmd.kind == "text":
        return {"stdout": stdout}
    out = {}
    try:
        doc = json.loads(stdout)
        out["checks"] = [[c["name"], c["ok"]] for c in doc["checks"]]
    except (ValueError, KeyError, TypeError):
        out["checks"] = []
    if cmd.kind == "simulate":
        csv = Path(cmd.argv[cmd.argv.index("--out") + 1]) / "diagnostics.csv"
        out["sha256"] = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else ""
    return out


def run_pass(workload: str, seed: int, workdir: Path, mode: str) -> dict:
    commands = workloads.build(workload, seed, workdir)
    workloads.write_configs(commands)
    result = {"ready": time.monotonic(), "mode": mode, "probes": [probe.probe_s()]}
    if mode == "setup":
        return result
    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    cmd_s, scaled_s, outcomes, cfl_warnings = {}, {}, {}, 0
    probes = result["probes"]
    for cmd in commands:
        if tracer:
            tracer.begin_command(cmd.label)
        buf = io.StringIO()
        # traced passes are not sampled, so that no span holds probe time
        sampler = probe.Sampler()
        t = time.perf_counter()
        with contextlib.redirect_stdout(buf), \
                warnings.catch_warnings(record=True) as caught, \
                (contextlib.nullcontext() if tracer else sampler):
            warnings.simplefilter("always")
            try:
                cli.main(list(cmd.argv))
            except SystemExit:  # argparse rejected the command: its checks go missing
                pass
        cmd_s[cmd.label] = time.perf_counter() - t - sampler.spent_s
        probes.append(probe.probe_s())
        around = [probes[-2], *sampler.samples, probes[-1]]
        scaled_s[cmd.label] = cmd_s[cmd.label] * probe.REFERENCE_S / statistics.mean(around)
        cfl_warnings += sum("exceeds CFL" in str(w.message) for w in caught)
        outcomes[cmd.label] = _outcome(cmd, buf.getvalue())
    if tracer:
        tracer.uninstall()
    sim_labels = [c.label for c in commands if c.steps]
    result.update(
        # first command issued -> last returned, less the probe timings
        wall_s=sum(cmd_s.values()), scaled_wall_s=sum(scaled_s.values()),
        cmd_s=cmd_s, outcomes=outcomes, cfl_warnings=cfl_warnings,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        steps=sum(c.steps for c in commands),
        scaled_sim_s=sum(scaled_s[label] for label in sim_labels))
    if tracer:
        result["layers"] = tracer.summary()
        tracer.write_spans(workdir / "spans.csv")
    return result


def main(argv: list[str]) -> int:
    out, workload, seed, workdir, mode = argv
    result = run_pass(workload, int(seed), Path(workdir), mode)
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
