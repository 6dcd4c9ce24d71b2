"""Write the references that run.py checks every pass against.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs one plain pass of each input variant of each workload (all four by
default) and stores, per command, its report checks and their outcome, the
sha256 of its diagnostics.csv, or its printed text, in refs/WORKLOAD.json.
A reference records what the program does at the commit it is made on,
known defects included; make it only on the commit whose behaviour later
commits must keep. It refuses a variant whose run raises a CFL warning or
fails any check other than the known defect below.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads

# BurbyClosure(8) misses its own inversion round-trip bound (rel err
# 1.45e-12 against 1e-12); it stays in the workload and is counted.
KNOWN_DEFECTS = {("verify.burby.L1-11", "burby(m=8): inversion round trip")}


def reference(outcomes: dict) -> dict:
    refs = {}
    for label, got in outcomes.items():
        ref = {k: got[k] for k in ("checks", "sha256", "stdout") if k in got}
        bad = [name for name, ok in ref.get("checks", [])
               if not ok and (label, name) not in KNOWN_DEFECTS]
        if bad or ("checks" in ref and not ref["checks"]):
            raise SystemExit(f"{label}: failing or missing checks {bad}")
        refs[label] = ref
    return refs


def main(names: list[str]) -> int:
    for workload in names or workloads.WORKLOADS:
        seeds = [0] if workload == "verify-sparse" else range(workloads.VARIANTS)
        out = {}
        for seed in seeds:
            workdir = run.ROOT / ".bench_work" / "refs" / f"{workload}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            result = run.run_child(workload, seed, workdir, "plain",
                                   time.monotonic() + run.RUN_LIMIT_S)
            if result["cfl_warnings"]:
                raise SystemExit(f"{workload} variant {seed}: CFL warnings")
            out[str(seed)] = reference(result["outcomes"])
            print(f"{workload} variant {seed}: {result['wall_s']:.2f} s", flush=True)
        path = run.HERE / "refs" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
