"""The verify-sparse benchmark references, checked in tier-1.

`perfbench/refs/verify-sparse.json` records, for each command of the
verify-sparse workload, the ordered report checks of a `verify` and the
printed text of a `closure` command. The benchmark compares every pass
with it; this test runs the same commands in-process, so that a renamed,
reordered or newly failing check, or a changed text, fails here too.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hydroclosures.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFS = json.loads((PERFBENCH / "refs" / "verify-sparse.json").read_text())["0"]


def _commands(workdir: Path) -> dict:
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return {c.label: c for c in workloads.build("verify-sparse", 0, workdir)}


def test_every_command_has_a_reference(tmp_path):
    assert sorted(_commands(tmp_path)) == sorted(REFS)


@pytest.mark.parametrize("label", sorted(REFS))
def test_verify_sparse_matches_reference(tmp_path, label):
    cmd = _commands(tmp_path)[label]
    ref = REFS[label]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(list(cmd.argv))
    if "stdout" in ref:
        assert buf.getvalue() == ref["stdout"]
        return
    got = [(c["name"], c["ok"]) for c in json.loads(buf.getvalue())["checks"]]
    assert [name for name, _ in got] == [name for name, _ in ref["checks"]]
    regressed = [name for (name, ok), (_, ref_ok) in zip(got, ref["checks"])
                 if ref_ok and not ok]
    assert not regressed
