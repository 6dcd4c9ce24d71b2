"""The verify benchmark references, checked in tier-1.

`perfbench/refs/verify-sparse.json` and `verify-dense.json` record, for
each input variant and each command of the workload, the ordered report
checks of a `verify` and the printed text of a `closure` command. The
benchmark compares every pass with them; these tests run the same
commands in-process, so that a renamed, reordered or newly failing check,
or a changed text, fails here too. verify-sparse is checked on variant 0,
verify-dense (waterbag height sets) on every variant.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hydroclosures.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _refs(workload: str) -> dict:
    return json.loads((PERFBENCH / "refs" / f"{workload}.json").read_text())


SPARSE = _refs("verify-sparse")["0"]
DENSE = _refs("verify-dense")


def _commands(workload: str, seed: int, workdir: Path) -> dict:
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return {c.label: c for c in workloads.build(workload, seed, workdir)}


def _assert_matches(cmd, ref):
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


def test_every_command_has_a_reference(tmp_path):
    assert sorted(_commands("verify-sparse", 0, tmp_path)) == sorted(SPARSE)


@pytest.mark.parametrize("label", sorted(SPARSE))
def test_verify_sparse_matches_reference(tmp_path, label):
    _assert_matches(_commands("verify-sparse", 0, tmp_path)[label], SPARSE[label])


@pytest.mark.parametrize("variant", sorted(DENSE))
def test_verify_dense_matches_reference(tmp_path, variant):
    commands = _commands("verify-dense", int(variant), tmp_path)
    assert sorted(commands) == sorted(DENSE[variant])
    for label, cmd in commands.items():
        _assert_matches(cmd, DENSE[variant][label])
