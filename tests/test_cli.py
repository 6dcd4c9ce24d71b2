"""Command-line interface contracts: exit codes, reports, determinism."""

import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydroclosures import bracket, cli
from hydroclosures.cli import _FAMILY_KEYS, closure_from_spec, main
from hydroclosures.closures import ClosureFamily
from hydroclosures.poly import MultiPoly

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
COLD_CONFIG = {
    "grid": {"L": 6.283185307179586, "nx": 64},
    "closure": {"family": "cold"},
    "initial": {"type": "single_mode", "n0": 1.0, "eps": 1e-3},
    "integrator": {"scheme": "rk4", "dt": 0.01, "t_end": 0.5},
    "output": {"stride": 5},
}


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_verify_levels_pass(capsys):
    assert main(["verify", "--family", "burby", "--levels", "1..3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "OK" in out


def test_verify_json_report(capsys):
    assert main(["verify", "--family", "multidelta", "--M", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 2
    assert doc["command"] == "verify"
    assert doc["ok"] is True
    assert all(c["ok"] for c in doc["checks"])
    assert isinstance(doc["timings"]["wall_time"], float)
    assert set(doc["timings"]) == {"wall_time", "flatness", "identities"}


@pytest.mark.parametrize("levels", ["5..2", "3", "a..4", "1..2..3"])
def test_verify_levels_rejects_bad_range(levels, capsys):
    # an empty range used to pass vacuously (OK (0/0 checks)), a single
    # level to fail on an unpacking error
    assert main(["verify", "--family", "burby", "--levels", levels]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "lo..hi" in captured.err


@pytest.mark.parametrize("argv, message", [
    # each used to exit 0 on another closure: M = 2, level 2, the range
    (["verify", "--family", "multidelta", "--levels", "1..3"], "verify --family burby only"),
    (["verify", "--family", "waterbag", "--heights", "1,1,-2", "--levels", "1..2"],
     "verify --family burby only"),
    (["closure", "show", "--family", "burby", "--levels", "3..4"], "verify --family burby only"),
    (["closure", "eos", "--family", "burby", "--levels", "2..2", "--mu", "0.33,2.667"],
     "verify --family burby only"),
    (["verify", "--family", "burby", "--levels", "3..3", "--level", "5"], "not both"),
], ids=["verify-multidelta", "verify-waterbag", "closure-show", "closure-eos", "with-level"])
def test_levels_outside_a_burby_range_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --level") and message in captured.err


def _drop_timings(text: str) -> str:
    """The report text with its `timings` object, the one part that may
    vary between runs, cut out."""
    out, count = re.subn(r',\n  "timings": \{[^{}]*\}', "", text)
    assert count == 1
    return out


def test_reports_byte_stable_but_for_timings(tmp_path, capsys):
    argv = ["verify", "--family", "waterbag", "--heights", "1,1,1,-1,-2", "--json"]
    texts = []
    for _ in range(2):
        assert main(argv) == 0
        texts.append(capsys.readouterr().out)
    assert _drop_timings(texts[0]) == _drop_timings(texts[1])
    cfg = write_config(tmp_path, COLD_CONFIG)
    texts = []
    for run in ("a", "b"):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / run)]) == 0
        texts.append((tmp_path / run / "report.json").read_text())
    assert _drop_timings(texts[0]) == _drop_timings(texts[1])


def test_verify_waterbag_includes_gamma_identity(capsys):
    assert main(["verify", "--family", "waterbag",
                 "--heights", "1,1,-2"]) == 0
    out = capsys.readouterr().out
    assert "gamma_n" in out


def test_verify_generic_negative_control(capsys):
    rc = main(["verify", "--family", "generic", "--mu2", "nu1^2*nu2",
               "--metric", "1,0;0,1", "--json"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert any(not c["ok"] for c in doc["checks"])


def test_verify_bad_flags_exit_2(capsys):
    assert main(["verify", "--family", "waterbag"]) == 2  # missing heights
    assert main(["verify", "--family", "waterbag",
                 "--heights", "1,1"]) == 2                # heights don't sum to 0


@pytest.mark.parametrize("mu2", ["nu1*-2", "nu1 - -2", "nu1^2*nu2 + + nu2"])
def test_verify_malformed_mu2_exit_2(capsys, mu2):
    assert main(["verify", "--family", "generic", "--mu2", mu2]) == 2
    assert "sign" in capsys.readouterr().err


def test_closure_show_canonical_text(capsys):
    assert main(["closure", "show", "--family", "burby", "--level", "2",
                 "--nmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "mu_1 = 1 * nu1*nu2" in out
    assert "mu_2 = 1/3 * nu2^3" in out


@pytest.mark.parametrize("nmax", ["-1", "0"])
def test_closure_show_rejects_nmax_below_1(capsys, nmax):
    # -1 printed nothing and 0 meant the default, both with exit 0
    assert main(["closure", "show", "--family", "burby", "--level", "2",
                 f"--nmax={nmax}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --nmax must be >= 1, got {nmax}\n"


def test_running_out_of_memory_exits_2(monkeypatch, capsys):
    # a generic closure in many variables can exhaust memory in the moment
    # recurrence; the kernel is made to raise here instead
    def exhausted(self, n):
        raise MemoryError

    monkeypatch.setattr(ClosureFamily, "mu", exhausted)
    assert main(["closure", "show", "--family", "generic", "--mu2", "nu20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory; ask for less work\n"


def test_closure_casimir(capsys):
    assert main(["closure", "casimir", "--family", "burby", "--level", "2"]) == 0
    out = capsys.readouterr().out
    assert "rho" in out and "recovered nu" in out


def test_closure_eos(capsys):
    assert main(["closure", "eos", "--family", "burby", "--level", "2",
                 "--mu", "0.33,2.6666666666666665"]) == 0
    out = capsys.readouterr().out
    assert "closed moments" in out


def test_closure_eos_prints_nu_for_newton_families(capsys):
    assert main(["closure", "eos", "--family", "multidelta",
                 "--mu", "0.36,0.324"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("nu = ") and "closed moments" in out


def test_closure_eos_retries_sign_flipped_newton_starts(capsys):
    # the default start (1, 1) hits a singular Jacobian; (1, -1) converges
    assert main(["closure", "eos", "--family", "multidelta", "--mu=-1,1"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("nu = ")
    assert np.allclose(json.loads(first[len("nu = "):]), [1.0, -1.0], atol=1e-12)


def test_closure_eos_tries_ramp_newton_starts(capsys):
    # the moments of nu = (0.3, 0.5, 0.7): every start of equal-magnitude
    # components fails (the first at a singular Jacobian), and the command
    # exited 2 saying the moments may lie outside the closure's range
    assert main(["closure", "eos", "--family", "waterbag", "--heights", "1,1,1,-1,-2",
                 "--mu=-0.0025,0.02726851851851852,-0.002545949074074073"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "nu = [0.3, 0.5, 0.7]"


@pytest.mark.parametrize("family", [["cold"], ["multidelta", "--M", "1"],
                                    ["waterbag", "--heights", "1,-1"]],
                         ids=["cold", "multidelta-M1", "waterbag-N2"])
def test_closure_eos_without_normal_variables(capsys, family):
    # no --mu exited 2 with "eos needs --mu", and any --mu with "expected 0
    # moment values", so the closed moment mu_1 = 0 was unreachable
    assert main(["closure", "eos", "--family", *family]) == 0
    assert capsys.readouterr().out == "nu = []\nclosed moments: [0.0]\n"


def test_closure_eos_no_solution_from_any_start(capsys):
    # xi eta = 0 and xi eta^2 = 1 have no common solution
    assert main(["closure", "eos", "--family", "multidelta", "--mu=0,1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_closure_eos_names_moments_outside_the_range(capsys):
    # mu_1 = -nu_1^2/4 <= 0 has no solution for mu_1 > 0; the error used to
    # be the first Newton start's "stalled (no descent direction)"
    argv = ["closure", "eos", "--family", "waterbag", "--heights", "1,1,-2"]
    assert main([*argv, "--mu", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no Newton start solves mu = [0.1]: "
                                   "the moments may lie outside the range of waterbag(N=3)")
    assert main([*argv, "--mu=-0.1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "nu = [0.632455532034]"


@pytest.mark.parametrize("argv", [
    ["burby", "--level", "2"],                    # no --mu
    ["burby", "--level", "2", "--mu", "1"],       # one value for two variables
    ["burby", "--level", "2", "--mu", "1,x"],     # not a number
    ["burby", "--level", "3", "--mu", "1,1,-1"],  # negative leading moment, odd level
    ["waterbag", "--heights", "1,1,-2", "--mu", "0.3"],  # mu_1 = -nu^2/4 <= 0
    # non-finite moments used to print a nan or inf nu and exit 0
    ["burby", "--level", "2", "--mu", "nan,1"],
    ["burby", "--level", "3", "--mu", "1,inf,2"],
    ["burby", "--level", "2", "--mu", "1e400,1"],      # overflows to inf
    ["multidelta", "--mu", "0.36,-inf"],
    # no normal variables: nothing to observe
    ["cold", "--mu", "1"],
    ["multidelta", "--M", "1", "--mu", "1"],
    ["waterbag", "--heights", "1,-1", "--mu", "1"],
], ids=["missing", "count", "not-a-number", "negative-odd", "no-solution",
        "nan", "inf", "overflow", "newton-inf", "cold-count",
        "multidelta-M1-count", "waterbag-N2-count"])
def test_closure_eos_bad_input_exit_2(capsys, argv):
    assert main(["closure", "eos", "--family", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def traced_main(argv: list) -> tuple[int, str, dict]:
    """(exit code, stdout, tracer summary) of one `main(argv)` run with the
    perfbench tracer installed."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = tracing.Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = main(argv)
    finally:
        tracer.uninstall()
    return rc, out.getvalue(), tracer.summary()


def test_closure_eos_differentiates_each_moment_once():
    """Counters of one traced `closure eos` of multidelta M = 3 (nv = 4)."""
    # mu_1..mu_4 at (xi2, xi3, eta2, eta3) = (1/4, 1/2, 1, -1/2)
    rc, out, summary = traced_main(["closure", "eos", "--family", "multidelta", "--M", "3",
                                    "--mu", "0.0,0.375,0.1875,0.28125"])
    assert rc == 0
    assert out == (
        "nu = [0.25, 0.5, 1.0, -0.5]\n"
        "closed moments: [0.234375, 0.2578125, 0.24609375, 0.251953125, 0.2490234375]\n")
    # the recurrence up to mu_9 reads the gradients of mu_2..mu_8, and the
    # Newton solve reads its Jacobian from those of mu_1..mu_4: each of
    # 8 gradients is 4 diffs, taken once
    assert summary["calls"]["poly.diff"] == 8 * 4


def test_closure_eos_inverts_once():
    # the closed moments used to invert the observed moments a second time
    rc, out, summary = traced_main(["closure", "eos", "--family", "burby", "--level", "2",
                                    "--mu", "0.33,2.667"])
    assert rc == 0
    assert out == ("nu = [0.164993125573, 2.000083329861]\n"
                   "closed moments: [0.0, 0.0, 0.0]\n")
    # `closures.invert` spans burby_invert, newton_invert and equation_of_state
    assert summary["calls"]["closures.invert"] == 1


@pytest.mark.parametrize("argv, identities, entries, muls", [
    (["verify", "--family", "burby", "--level", "6"], 237, 70, 48),
    (["verify", "--family", "multidelta", "--M", "3"], 74, 15, 47)],
    ids=["burby-6", "multidelta-3"])
def test_verify_multiplies_no_zero_in_flatness(monkeypatch, argv, identities, entries, muls):
    """Work counters of two homogeneous verify runs. Every gamma_n is zero, so
    the entries are those of the Benney chain and no product in
    check_flatness has a zero factor. The identity counts are those of
    every earlier version. Only the independent cells that the recurrence
    does not prove build an entry: alpha for 3 <= n <= m and beta for
    2 <= n < m. Every cell was built once (237 and 74), then the
    independent ones, size(size+1)/2 alpha and nv size(size-1)/2 beta
    (111 and 34). poly.mul.calls was 1421 and 516 while zero products were
    still formed, then 264 and 200 while every cell was built; burby-6 then
    read 230 while its closed forms were rebuilt for each n and took
    variable powers by multiplication, 157 and 160 while each product of a
    pairing or of a closed form went through `MultiPoly.__mul__` instead
    of `MultiPoly.sum_of_products`, and 79 and 70 while the n = 1 row and
    the alpha row n = 2 were computed. The pairs handed to that kernel are
    checked for zero factors too."""
    mul, flatness = MultiPoly.__mul__, bracket.check_flatness
    kernel = MultiPoly.sum_of_products
    depth, products, zero_operands = [0], [0], []

    def zero_factor(self, other):
        return self.is_zero or (other.is_zero if isinstance(other, MultiPoly) else other == 0)

    def checked_mul(self, other):
        if depth[0]:
            products[0] += 1
            if zero_factor(self, other):
                zero_operands.append((self, other))
        return mul(self, other)

    def checked_kernel(nvars, pairs):
        pairs = list(pairs)
        if depth[0]:
            products[0] += len(pairs)
            zero_operands.extend(pair for pair in pairs if zero_factor(*pair))
        return kernel(nvars, pairs)

    def checked_flatness(*args, **kwargs):
        depth[0] += 1
        try:
            return flatness(*args, **kwargs)
        finally:
            depth[0] -= 1

    # patched before the tracer wraps them; it puts these back on uninstall
    monkeypatch.setattr(MultiPoly, "__mul__", checked_mul)
    monkeypatch.setattr(MultiPoly, "__rmul__", checked_mul)
    monkeypatch.setattr(MultiPoly, "sum_of_products", staticmethod(checked_kernel))
    monkeypatch.setattr(bracket, "check_flatness", checked_flatness)
    rc, _, summary = traced_main(argv)
    assert rc == 0
    assert summary["counts"]["moments.entries"] == entries
    assert summary["counts"]["bracket.identities"] == identities
    assert products[0] > 0 and zero_operands == []
    assert summary["calls"]["poly.mul"] == muls


def test_verify_builds_each_burby_closed_form_once():
    """Work counters of `verify --family burby --levels 1..11`. Each closure
    keeps the subproblems of its published closed forms in one memo shared
    by every n, with mu_2 the constructor's seed, builds the variable
    powers they hold as monomials, and no variable or monomial goes
    through the validating constructor. poly.mul.calls and poly.init.calls
    were 4144 and 601 while `burby_mu` rebuilt its recursion for each n;
    poly.mul.calls was 2782 while the products of the pairings and of the
    closed forms went through `MultiPoly.__mul__`, which the tracer counts,
    instead of `MultiPoly.sum_of_products`, which it does not, and 1131
    while the flatness cells the recurrence proves were computed."""
    rc, _, summary = traced_main(["verify", "--family", "burby", "--levels", "1..11"])
    assert rc == 0
    assert summary["calls"]["poly.mul"] == 734
    assert summary["counts"].get("poly.init.calls", 0) == 0


def test_verify_burby_level_8_round_trip(capsys):
    # the float root of the leading moment was an ulp off at m = 8, and the
    # back-substitution amplified that past the 1e-12 round-trip bound
    assert main(["verify", "--family", "burby", "--level", "8"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--levels", "14..16"],
    ["--level", "11", "--branch", "minus"],
    ["--level", "15", "--branch", "minus"],
    ["--level", "23", "--branch", "minus"],
], ids=["L14-16", "L11-minus", "L15-minus", "L23-minus"])
def test_verify_burby_round_trip_high_levels(capsys, argv):
    # at the former sample point ((k+1)/2)(-1)^k even exact back-substitution
    # from the correctly rounded moments missed the 1e-12 bound at m = 14
    # and 15 (plus) and 11 and 15 (minus); (1/2, ..., 1/2, 2s) keeps it.
    # 23 minus errs 7.2e-11 there, within its condition bound
    assert main(["verify", "--family", "burby", *argv]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_closure_casimir_minus_branch_recovers_its_sample(capsys):
    assert main(["closure", "casimir", "--family", "burby", "--level", "3",
                 "--branch", "minus"]) == 0
    out = capsys.readouterr().out
    assert "sample point: mu = [0.875, 2.0, -4.0]\n" in out
    assert "recovered nu = [0.5, 0.5, -2.0]\n" in out


@pytest.mark.parametrize("branch, mu, other", [
    ("plus", "1,1,-1", "minus"), ("minus", "1,2,3", "plus"),
])
def test_closure_eos_wrong_sign_names_the_other_branch(capsys, branch, mu, other):
    assert main(["closure", "eos", "--family", "burby", "--level", "3",
                 "--branch", branch, f"--mu={mu}"]) == 2
    assert capsys.readouterr().err.endswith(f"select the {other} branch\n")


def test_closure_from_spec_defaults_and_errors():
    assert closure_from_spec({"family": "multidelta"}).name == "multidelta(M=2)"
    assert closure_from_spec({"family": "burby"}).name == "burby(m=2)"
    assert closure_from_spec({"family": "fourfield"}).name == "fourfield(kappa=0)"
    for spec in ({"family": "waterbag"}, {"family": "generic"},
                 {"family": "burby", "M": 2}, {"family": "cold", "level": 1},
                 {"family": "quartic"}, {"family": ["burby"]}, {}):
        with pytest.raises(ValueError):
            closure_from_spec(spec)
    # integer keys are integers, never truncated: level 2.9 built m = 2
    for key, family in (("level", "burby"), ("M", "multidelta")):
        for value in (2.9, 2.0, True, "2"):
            with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
                closure_from_spec({"family": family, key: value})


def test_flags_a_family_does_not_take_exit_2(capsys):
    # each was dropped silently and exited 0: --level was also the stream
    # count of multidelta, and the other families' flags were ignored
    for argv, keys in [
        (["closure", "show", "--family", "multidelta", "--level", "3", "--nmax", "1",
          "--kappa", "1/2", "--heights", "1,-1"], ['heights', 'kappa', 'level']),
        (["closure", "show", "--family", "multidelta", "--level", "3"], ['level']),
        (["verify", "--family", "waterbag", "--heights", "1,1,-2", "--kappa", "3"], ['kappa']),
        (["verify", "--family", "burby", "--levels", "1..2", "--kappa", "2",
          "--heights", "1,-1"], ['heights', 'kappa']),
        (["closure", "eos", "--family", "cold", "--branch", "plus"], ['branch']),
    ]:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: unknown closure keys: {keys}\n")


@pytest.mark.parametrize("mu2, metric", [
    ("x1*y1^2", None), ("x1*y1^2", "1,0;0,1"),
    ("x1^2*x2", None), ("x1^2*x2", "1,0,0;0,1,0;0,0,1"),
])
def test_generic_mu2_takes_only_nu_variables(mu2, metric, capsys):
    # mu2 was parsed under two naming rules: alone, x1*y1^2 was read as
    # nu1^3 and x1^2*x2 built; under a metric, either was refused
    spec = {"family": "generic", "mu2": mu2, **({} if metric is None else {"metric": metric})}
    with pytest.raises(ValueError, match=r"^unknown variable 'x1'$"):
        closure_from_spec(spec)
    argv = ["closure", "show", "--family", "generic", f"--mu2={mu2}"]
    assert main(argv + ([] if metric is None else [f"--metric={metric}"])) == 2
    assert capsys.readouterr() == ("", "error: unknown variable 'x1'\n")


def test_generic_mu2_under_a_larger_metric(capsys):
    metric = "1,0,0;0,1,0;0,0,1"
    closure = closure_from_spec({"family": "generic", "mu2": "nu1^2*nu2", "metric": metric})
    assert closure.mu(2) == MultiPoly.parse("nu1^2*nu2", nvars=3)
    assert main(["closure", "show", "--family", "generic", "--mu2", "nu1^2*nu2",
                 "--metric", metric, "--nmax", "2"]) == 0
    assert capsys.readouterr().out == ("mu_1 = 1/2 * nu1^2 + 1/2 * nu2^2 + 1/2 * nu3^2\n"
                                       "mu_2 = 1 * nu1^2*nu2\n")
    with pytest.raises(ValueError, match="metric smaller than the variable count of mu2"):
        closure_from_spec({"family": "generic", "mu2": "nu1^2*nu3", "metric": "0,1;1,0"})


def test_simulate_artifacts_and_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, COLD_CONFIG)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == 2 and report["ok"] is True
    with open(out / "diagnostics.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", "H", "C_mass", "C_psi", "momentum", "field_energy"]
    assert len(rows) > 2
    assert (out / "snapshots" / "final.npz").exists()


def test_simulate_diagnostics_columns_with_micro_fields(tmp_path):
    cfg = dict(COLD_CONFIG)
    cfg["closure"] = {"family": "burby", "level": 2}
    cfg["initial"] = {"type": "single_mode", "eps": 1e-5,
                      "nu_base": [0.05, 0.5]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    with open(out / "diagnostics.csv") as f:
        header = f.readline().strip().split(",")
    assert header == ["t", "H", "C_mass", "C_psi", "C_1", "C_2",
                      "momentum", "field_energy"]


def test_simulate_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, COLD_CONFIG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "diagnostics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_rejects_unknown_keys(tmp_path, capsys):
    cfg = dict(COLD_CONFIG)
    cfg["extra_section"] = {}
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown" in capsys.readouterr().err
    cfg = json.loads(json.dumps(COLD_CONFIG))
    cfg["grid"]["nz"] = 3
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o2")]) == 2
    cfg = json.loads(json.dumps(COLD_CONFIG))
    cfg["closure"] = {"family": "quartic"}
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o3")]) == 2


@pytest.mark.parametrize("command", ["closure show", "closure casimir", "closure eos",
                                     "simulate", "verify"])
def test_degenerate_metric_exits_2(tmp_path, capsys, command):
    # show, casimir, eos and simulate used to die on a ZeroDivisionError
    # traceback when mu_1 first read g^-1; the closure now refuses the metric
    if command == "simulate":
        cfg = json.loads(json.dumps(COLD_CONFIG))
        cfg["closure"] = {"family": "generic", "mu2": "nu1^3", "metric": [[0]]}
        argv = ["simulate", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path / "o")]
    else:
        argv = [*command.split(), "--family", "generic", "--mu2=nu1^3", "--metric=0",
                *(["--mu=0.1"] if command == "closure eos" else [])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: degenerate metric" in captured.err
    assert not (tmp_path / "o").exists()


COMPARE_CONFIG = {
    "grid": {"L": 6.283185307179586, "nx": 64},
    "streams": {"n0": 1.0, "v0": 0.2, "eps": 1e-3},
    "integrator": {"dt": 0.002, "t_end": 0.25},
    "tolerance": 1e-6,
}

# integrator and output blocks that used to run zero steps and pass
# vacuously (negative dt, t_end below dt/2) or fail with a traceback
BAD_RUNS = {
    "negative-dt": ({"dt": -0.01}, {}),
    "zero-dt": ({"dt": 0.0}, {}),
    "nan-dt": ({"dt": float("nan")}, {}),
    "short-t_end": ({"dt": 0.01, "t_end": 0.004}, {}),
    "negative-t_end": ({"t_end": -1.0}, {}),
    "bogus-scheme": ({"scheme": "bogus"}, {}),
    "null-dt": ({"dt": None}, {}),
    "zero-stride": ({}, {"stride": 0}),
    "negative-snapshots": ({}, {"snapshots": -1}),
    # truncated by int(): stride 1.9 recorded every step, snapshots 0.5 became 0
    "fractional-stride": ({}, {"stride": 1.9}),
    "bool-stride": ({}, {"stride": True}),
    "fractional-snapshots": ({}, {"snapshots": 0.5}),
    "string-snapshots": ({}, {"snapshots": "2"}),
}


# closure integer keys that int() truncated: level 2.9 ran burby(m=2),
# level true burby(m=1)
BAD_CLOSURES = {
    "fractional-level": {"family": "burby", "level": 2.9},
    "bool-level": {"family": "burby", "level": True},
    "float-M": {"family": "multidelta", "M": 2.0},
    "string-M": {"family": "multidelta", "M": "3"},
    # values of the wrong type: an AttributeError traceback (mu2), heights
    # read one character at a time, or a TypeError's message
    "int-mu2": {"family": "generic", "mu2": 5},
    "string-heights": {"family": "waterbag", "heights": "1,1,-2"},
    "int-metric": {"family": "generic", "mu2": "nu1^3", "metric": 5},
    "string-rows": {"family": "generic", "mu2": "nu1^3", "metric": ["1"]},
    "list-closure": [],
    # a ZeroDivisionError traceback
    "zero-denominator-kappa": {"family": "fourfield", "kappa": "1/0"},
    "zero-denominator-height": {"family": "waterbag", "heights": [1, "1/0", -2]},
    "zero-denominator-metric": {"family": "generic", "mu2": "nu1^3", "metric": [["1/0"]]},
    "quartic-mu2": {"family": "generic", "mu2": "nu1^4"},
}


# grid blocks that divided by zero (L = 0), ran with negative integrals
# (L < 0), failed as non-finite fields or truncated nx silently
BAD_GRIDS = {
    "zero-L": {"L": 0},
    "negative-L": {"L": -6.283185307179586},
    "nan-L": {"L": float("nan")},
    "inf-L": {"L": float("inf")},
    "fractional-nx": {"nx": 8.5},
    "float-nx": {"nx": 64.0},
    "bool-nx": {"nx": True},
    "string-nx": {"nx": "64"},
    # finite, but numpy warned "overflow encountered in multiply" first
    "huge-L": {"L": 1e308},
    # finite and positive, but the wavenumbers overflowed: a FAIL report
    # after numpy's warnings (1e-308), or k^2 = inf in the field solve
    "tiny-L": {"L": 1e-300},
    "subnormal-dx-L": {"L": 1e-308},
}


# initial data that ran and wrote a FAIL report (exit 1): a density at or
# below zero somewhere, or non-finite fields
BAD_INITIALS = {
    "zero-n0": {"n0": 0},
    "negative-n0": {"n0": -1},
    "large-eps": {"eps": 2},
    "nan-n0": {"n0": float("nan")},
    "inf-n0": {"n0": float("inf")},
    "nan-u0": {"u0": float("nan")},
    "inf-u0": {"u0": float("inf")},
    # finite, but mean(rho) overflowed: a numpy warning and a FAIL report
    "huge-n0": {"n0": 1e308},
}


# the cases that overflow in float64, and the config block the error names:
# it named numpy's operation alone ("config error: overflow encountered in
# multiply"), so the user had to guess which value was at fault
FLOAT_ERROR_BLOCKS = {"huge-L": "grid", "tiny-L": "grid", "subnormal-dx-L": "grid",
                      "huge-n0": "initial", "huge-v0": "streams", "huge-stream-n0": "streams",
                      "overflowing-v0": "streams"}


def config_error_prefix(case: str) -> str:
    block = FLOAT_ERROR_BLOCKS.get(case)
    return f"config error: {block}: overflow encountered in " if block else "config error: "


@pytest.mark.parametrize("case", [*BAD_RUNS, *BAD_GRIDS, *BAD_INITIALS, *BAD_CLOSURES])
def test_simulate_rejects_bad_run_settings(tmp_path, capsys, case):
    integ, output = BAD_RUNS.get(case, ({}, {}))
    cfg = json.loads(json.dumps(COLD_CONFIG))
    cfg["closure"] = BAD_CLOSURES.get(case, cfg["closure"])
    cfg["grid"].update(BAD_GRIDS.get(case, {}))
    cfg["initial"].update(BAD_INITIALS.get(case, {}))
    cfg["integrator"].update(integ)
    cfg["output"].update(output)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing may be printed before the error
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(config_error_prefix(case))
    assert captured.err.count("\n") == 1
    assert not out.exists()  # rejected before any step


@pytest.mark.parametrize("case, message", [
    ("int-mu2", "generic needs a string 'mu2', got 5"),
    ("string-heights", "waterbag needs a list 'heights', got '1,1,-2'"),
    ("int-metric", "metric must be a string or a list of rows, got 5"),
    ("string-rows", "metric must be a string or a list of rows, got ['1']"),
    ("list-closure", "closure must be an object, got []"),
    ("zero-denominator-kappa", "invalid rational '1/0'"),
    ("zero-denominator-height", "invalid rational '1/0'"),
    ("zero-denominator-metric", "invalid rational '1/0'"),
    ("quartic-mu2", "mu_2 must be a cubic, of total degree <= 3, got degree 4"),
])
def test_closure_from_spec_names_the_bad_value(case, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        closure_from_spec(BAD_CLOSURES[case])


# normal-variable lists of the wrong length for burby level 2 (2 normal
# variables): a third value was dropped silently and ran to OK, one value
# was an IndexError traceback
BAD_NU_LISTS = {
    "nu_base-too-many": {"nu_base": [0.05, 0.5, 0.7]},
    "nu_base-too-few": {"nu_base": [0.05]},
    "nu_eps-too-many": {"nu_base": [0.05, 0.5], "nu_eps": [1e-6, 1e-6, 1e-6]},
    "nu_eps-too-few": {"nu_base": [0.05, 0.5], "nu_eps": [1e-6]},
}


@pytest.mark.parametrize("case", BAD_NU_LISTS)
def test_simulate_rejects_wrong_nu_list_length(tmp_path, capsys, case):
    cfg = json.loads(json.dumps(COLD_CONFIG))
    cfg["closure"] = {"family": "burby", "level": 2}
    cfg["initial"].update(BAD_NU_LISTS[case])
    out = tmp_path / "run"
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {case.split('-')[0]} needs 2 values")
    assert not out.exists()


@pytest.mark.parametrize("key", ["nu_base", "nu_eps"])
def test_simulate_rejects_a_nu_string(tmp_path, capsys, key):
    # read one character at a time: "nu_base": "05" ran burby level 2 from
    # nu = (0, 5) and exited 0
    cfg = json.loads(json.dumps(COLD_CONFIG))
    cfg["closure"] = {"family": "burby", "level": 2}
    cfg["initial"][key] = "05"
    out = tmp_path / "run"
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: initial {key} must be a list of numbers, got '05'\n"
    assert not out.exists()


# number keys that read true and false as 1.0 and 0.0: "dt": true ran with
# dt = 1, and a compare "tolerance": true passed every P_k check against 1.0;
# a string that is no number was refused without naming its key
BOOL_NUMBERS = [
    ("simulate", "grid", "L"), ("simulate", "initial", "n0"), ("simulate", "initial", "eps"),
    ("simulate", "initial", "u0"), ("simulate", "initial", "nu_base"),
    ("simulate", "initial", "nu_eps"), ("simulate", "integrator", "dt"),
    ("simulate", "integrator", "t_end"), ("compare", "integrator", "dt"),
    ("compare", "streams", "n0"), ("compare", "streams", "v0"), ("compare", "streams", "eps"),
    ("compare", None, "tolerance"),
]


@pytest.mark.parametrize("value", [True, "fast"])
@pytest.mark.parametrize("command, block, key", BOOL_NUMBERS)
def test_number_keys_refuse_non_numbers(tmp_path, capsys, command, block, key, value):
    cfg = json.loads(json.dumps(COMPARE_CONFIG if command == "compare" else COLD_CONFIG))
    if command == "simulate":
        cfg["closure"] = {"family": "burby", "level": 2}
    (cfg[block] if block else cfg)[key] = [0.05, value] if key.startswith("nu_") else value
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = f"{block} {key}" if block else key
    assert captured.err == f"config error: {name} must be a number, got {value!r}\n"
    assert not out.exists()


def test_number_keys_read_numeric_strings(tmp_path):
    # a string that float() reads is a number: the run is the same
    cfg = json.loads(json.dumps(COLD_CONFIG))
    cfg["closure"] = {"family": "burby", "level": 2}
    cfg["initial"].update(nu_base=[0.05, 0.5], nu_eps=[1e-6, 1e-6])
    text = json.loads(json.dumps(cfg))
    text["grid"]["L"] = "6.283185307179586"
    text["initial"].update(n0="1", eps="1e-3", nu_base=["0.05", "0.5"], nu_eps=["1e-6", 1e-6])
    text["integrator"].update(dt="0.01", t_end="0.5")
    csvs = []
    for name, c in (("number", cfg), ("text", text)):
        assert main(["simulate", "--config", write_config(tmp_path, c, f"{name}.json"),
                     "--out", str(tmp_path / name)]) == 0
        csvs.append((tmp_path / name / "diagnostics.csv").read_bytes())
    assert csvs[0] == csvs[1]


# streams that crashed with a traceback (n0 <= 0, NaN v0) or ran on a
# negative stream density, and tolerances that passed vacuously (inf) or
# exited 1 (NaN, negative)
BAD_STREAMS = {
    "zero-stream-n0": {"n0": 0},
    "negative-stream-n0": {"n0": -1},
    "inf-stream-n0": {"n0": float("inf")},
    "nan-v0": {"v0": float("nan")},
    "inf-v0": {"v0": float("inf")},
    "unit-eps": {"eps": 1},
    "nan-eps": {"eps": float("nan")},
    # finite, but a numpy overflow warning came first (v0), or a FAIL report (n0)
    "huge-v0": {"v0": 1e308},
    "huge-stream-n0": {"n0": 1e308},
    # finite, and so is the fluid state, but its first rates overflow: numpy's
    # warnings, then a FAIL report ("density fell below 1e-12 at t=0.0")
    "overflowing-v0": {"v0": 1e200},
}
BAD_TOLERANCES = {
    "inf-tolerance": float("inf"),
    "nan-tolerance": float("nan"),
    "zero-tolerance": 0,
    "negative-tolerance": -1e-6,
}


@pytest.mark.parametrize("case", [*(c for c, (_, output) in BAD_RUNS.items() if not output),
                                  *BAD_GRIDS, *BAD_STREAMS, *BAD_TOLERANCES])
def test_compare_rejects_bad_integrator(tmp_path, capsys, case):
    cfg = json.loads(json.dumps(COMPARE_CONFIG))
    cfg["grid"].update(BAD_GRIDS.get(case, {}))
    cfg["integrator"].update(BAD_RUNS.get(case, ({}, {}))[0])
    cfg["streams"].update(BAD_STREAMS.get(case, {}))
    cfg["tolerance"] = BAD_TOLERANCES.get(case, cfg["tolerance"])
    out = tmp_path / "cmp"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(config_error_prefix(case))
    assert captured.err.count("\n") == 1
    assert not out.exists()


# simulate starts that pass the state check, every field finite, but whose
# first record or rates overflow float64: numpy's warnings, then a FAIL
# report ("non-finite field values at t=0.0") and exit 1
OVERFLOWING_STARTS = {
    "burby-nu_eps": {
        "grid": {"L": 6.283185307179586, "nx": 8, "method": "fd2"},
        "closure": {"family": "burby", "level": 2},
        "initial": {"eps": 1e-5, "nu_base": [0.05, 0.5], "nu_eps": [1e308, 1e-6]},
        "integrator": {"scheme": "split", "dt": 0.01, "t_end": 0.05}},
    "fourfield-kappa": {
        "grid": {"L": 6.283185307179586, "nx": 8},
        "closure": {"family": "fourfield", "kappa": 1e308},
        "initial": {"nu_base": [0.1, 0.2]},
        "integrator": {"dt": 0.05, "t_end": 0.25}},
}


@pytest.mark.parametrize("case", OVERFLOWING_STARTS)
def test_overflowing_starts_are_config_errors(tmp_path, capsys, case):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", write_config(tmp_path, OVERFLOWING_STARTS[case]),
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: initial: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("compare", "closure", {"family": "burby", "level": 3}),
    ("compare", "initial", {"type": "single_mode"}),
    ("compare", "output", {"stride": 1}),
    ("simulate", "streams", {"v0": 0.2}),
    ("simulate", "tolerance", 1e-6),
])
def test_commands_reject_the_other_commands_keys(tmp_path, capsys, command, key, value):
    cfg = json.loads(json.dumps(COMPARE_CONFIG if command == "compare" else COLD_CONFIG))
    cfg[key] = value
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config keys") and key in err


# a missing required key was a bare KeyError, `config error: 'dt'`, that
# named neither its block nor what was wrong
@pytest.mark.parametrize("command, block, key", [
    ("simulate", None, "grid"), ("simulate", None, "closure"),
    ("simulate", None, "integrator"), ("compare", None, "integrator"),
    ("simulate", "grid", "L"), ("compare", "grid", "nx"),
    ("simulate", "integrator", "dt"), ("compare", "integrator", "t_end"),
])
def test_missing_keys_name_their_block(tmp_path, capsys, command, block, key):
    cfg = json.loads(json.dumps(COMPARE_CONFIG if command == "compare" else COLD_CONFIG))
    del (cfg[block] if block else cfg)[key]
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: missing {block or 'config'} key {key!r}\n"
    assert not out.exists()


# two faults: the one in the block built first is reported, whether it is
# found by the reader (a type) or by the library (a grid, a run, a start)
@pytest.mark.parametrize("command, faults, message", [
    ("compare", {"grid": {"L": 0}, "tolerance": "fast"}, "domain length L must be"),
    ("compare", {"streams": {"n0": 0}, "integrator": {"dt": "fast"}}, "streams need a finite"),
    ("simulate", {"grid": {"nx": 4}, "closure": {"family": "quartic"}}, "need at least 8"),
    ("simulate", {"initial": {"n0": 0}, "integrator": {"dt": True}}, "initial state: "),
    ("simulate", {"integrator": {"dt": -1}, "output": {"snapshots": -1}}, "integrator needs"),
])
def test_blocks_are_checked_in_the_order_they_are_built(tmp_path, capsys, command, faults,
                                                         message):
    cfg = json.loads(json.dumps(COMPARE_CONFIG if command == "compare" else COLD_CONFIG))
    for key, fault in faults.items():
        cfg[key] = {**cfg[key], **fault} if isinstance(fault, dict) else fault
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


CONFIG_DOC = (ROOT / "docs" / "config.md").read_text()
# {block: text} of each "## `block`" section of docs/config.md
DOC_PARTS = re.split(r"^## `(\w+)`.*$", CONFIG_DOC, flags=re.M)
DOC_SECTIONS = dict(zip(DOC_PARTS[1::2], DOC_PARTS[2::2]))
COMMANDS = ("simulate", "compare")


def test_config_doc_lists_the_config_table():
    # the top-level table: each key, the commands that take it, and whether
    # it is required
    rows = re.findall(r"^\| `(\w+)` +\| ([\w, ]+?) +\| (yes|no) +\|", CONFIG_DOC, re.M)
    assert {key: (used, required) for key, used, required in rows} == {
        key: (", ".join(c for c in COMMANDS if key in cli._CONFIG[c]),
              "yes" if cli._CONFIG[c][key][1] is ... else "no")
        for c in COMMANDS for key in cli._CONFIG[c]}
    # each block's section lists its keys as bullets: "- `dt`, `t_end` ..."
    blocks = set(cli._CONFIG) - set(COMMANDS)
    assert blocks == {key for c in COMMANDS for key, (reader, _) in cli._CONFIG[c].items()
                      if reader is cli._read}
    for block in blocks:
        heads = re.findall(r"^- ((?:`\w+`(?:, | / )?)+)", DOC_SECTIONS[block], re.M)
        assert {key for head in heads for key in re.findall(r"`(\w+)`", head)} \
            == set(cli._CONFIG[block]), block


@pytest.mark.parametrize("block", ["grid", "closure", "initial", "integrator", "output",
                                   "streams"])
def test_config_doc_examples_read_and_build(block):
    from hydroclosures import sim
    # each example is an object from a "{" that starts a line to a "}" that ends one
    examples = [json.loads(text) for code in re.findall(r"```json\n(.*?)```",
                                                         DOC_SECTIONS[block], re.S)
                for text in re.findall(r"^\{.*?\}$", code, re.M | re.S)]
    assert examples
    grid = sim.Grid(L=6.283185307179586, nx=64)
    for spec in examples:
        if block == "closure":
            closure_from_spec(spec)
            continue
        values = cli._read(block, spec)
        if block == "grid":
            cli._build_grid(**values)
        elif block == "initial":
            cli._build_initial(grid, closure_from_spec({"family": "burby"}), **values)
        elif block == "integrator":
            sim.step_count(**values)
        elif block == "output":
            sim.step_count("rk4", 0.01, 1.0, values["stride"])
        else:
            cli._build_streams(grid, **values)


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_missing_config_file_exits_2(tmp_path, capsys, command):
    # a FileNotFoundError traceback, exit 1, before
    out = tmp_path / "o"
    assert main([command, "--config", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: [Errno 2] No such file or directory: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "simulate", "compare"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command):
    # a FileExistsError traceback, exit 1, before, and verify's came only
    # after all its work
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    if command == "verify":
        argv = ["verify", "--family", "cold"]
    else:
        config = COMPARE_CONFIG if command == "compare" else COLD_CONFIG
        argv = [command, "--config", write_config(tmp_path, config)]
    assert main([*argv, "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot make the --out directory: ")
    assert taken.read_text() == "kept\n"


def test_compare_streams_at_rest(tmp_path, capsys, monkeypatch):
    # streams at rest have P_1 = P_2 = P_3 = 0, and the deviation from them
    # is absolute: dividing by max|P_k| = 0 gave NaN, a warning and exit 1
    cfg = json.loads(json.dumps(COMPARE_CONFIG))
    cfg["streams"]["v0"] = 0
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", "--config", path, "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == [
        *(f"P_{k} max relative deviation < 1e-06" for k in range(4)),
        "no wave breaking in window"]
    assert all(c["ok"] for c in checks)
    # negative control: a fluid that drifts where the streams rest fails P_1
    from hydroclosures import cli
    from hydroclosures.closures import multidelta_normal_map

    def drifting(a, v):
        rho, u, xi, eta = multidelta_normal_map(a, v)
        return rho, u + 1e-3, xi, eta

    monkeypatch.setattr(cli, "multidelta_normal_map", drifting)
    assert main(["compare", "--config", path]) == 1
    out = capsys.readouterr().out
    assert re.search(r"\[FAIL\] P_1 max relative deviation < 1e-06: \S+ \(absolute: P_k = 0\)",
                     out), out


def test_compare_honours_scheme(tmp_path, capsys):
    reports = {}
    for scheme in ("rk4", "split"):
        cfg = json.loads(json.dumps(COMPARE_CONFIG))
        cfg["integrator"]["scheme"] = scheme
        out = tmp_path / scheme
        assert main(["compare", "--config", write_config(tmp_path, cfg, f"{scheme}.json"),
                     "--out", str(out)]) == 0
        reports[scheme] = json.loads((out / "report.json").read_text())["checks"]
    # the P_k deviations are the fluid scheme's error against the oracle
    assert [c["detail"] for c in reports["rk4"]] != [c["detail"] for c in reports["split"]]


def test_compare_subcommand(tmp_path, capsys):
    cfg = COMPARE_CONFIG
    assert main(["compare", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "cmp")]) == 0
    report = json.loads((tmp_path / "cmp" / "report.json").read_text())
    assert report["ok"] is True
    names = [c["name"] for c in report["checks"]]
    assert any(n.startswith("P_3") for n in names)


def test_compare_reports_a_failing_step(tmp_path, capsys):
    # a finite but huge stream speed passes the config checks, and the
    # fluid's first step drains the density: a FAIL check and exit 1, as
    # `simulate` reports it, where it used to end in a traceback
    cfg = json.loads(json.dumps(COMPARE_CONFIG))
    cfg["streams"]["v0"] = 1e10
    out = tmp_path / "cmp"
    with pytest.warns(UserWarning, match="CFL"):
        rc = main(["compare", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is False
    assert [(c["name"], c["ok"]) for c in report["checks"]] == [("run completed", False)]
    assert report["checks"][0]["detail"] == "density fell below 1e-12 at t=0.0"
    assert "[FAIL] run completed: density fell below" in capsys.readouterr().out


def _run_captured(argv) -> tuple:
    """(exit code, stdout, stderr) of `main(argv)`; an argparse refusal's
    SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def test_many_commands_in_one_process(tmp_path):
    # main parses each argv into a fresh namespace on the process's one
    # parser: no flag value, default or refused parse of one call reaches
    # the next, so each call gives what it gives on a parser of its own
    run = {"scheme": "rk4", "dt": 0.05, "t_end": 0.25}
    simulate = write_config(tmp_path, {**COLD_CONFIG, "integrator": run}, "simulate.json")
    compare = write_config(tmp_path, {**COMPARE_CONFIG, "integrator": run}, "compare.json")
    sequence = [
        ["verify", "--family", "burby", "--levels", "1..2"],
        ["verify", "--family", "burby", "--level", "3"],
        ["closure", "eos", "--family", "burby", "--level", "2", "--mu", "0.33,2.667"],
        ["closure", "eos", "--family", "burby", "--level", "2"],
        ["verify", "--family", "nope"],
        ["simulate", "--config", simulate, "--out", str(tmp_path / "sim")],
        ["compare", "--config", compare],
    ]
    cli._parser.cache_clear()
    shared = [_run_captured(argv) for argv in sequence]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(_run_captured(argv))
    assert [rc for rc, _, _ in shared] == [0, 0, 0, 2, 2, 0, 0]
    assert shared == fresh
    assert shared[3][2] == "error: eos needs --mu\n"
    assert "invalid choice: 'nope'" in shared[4][2]


def test_branch_flag(capsys):
    assert main(["verify", "--family", "burby", "--level", "3",
                 "--branch", "minus"]) == 0
    with pytest.raises(SystemExit):
        main(["verify", "--family", "burby", "--branch", "sideways"])


def test_verify_json_into_closed_pipe_exits_quietly():
    # the read end is closed before the child starts, so its first write
    # fails with EPIPE, as with `hydroclosures verify ... --json | head`
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hydroclosures.cli", "verify", "--family",
             "burby", "--levels", "1..2", "--json"],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == b""  # no BrokenPipeError traceback


def readme_commands() -> list[str]:
    """The `hydroclosures verify` and `closure` lines of README's CLI block;
    `simulate` and `compare` need config files and are left out."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines()
            if line.startswith(("hydroclosures verify ", "hydroclosures closure "))]


def test_readme_lists_exact_commands():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_0(line, capsys):
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().out


# inputs that ended in a traceback (exit 1), printed a nan (exit 0),
# named a zero denominator as `Fraction(1, 0)` or, for a --mu value that
# is not a number, named neither the flag nor the value's role
@pytest.mark.parametrize("argv, message", [
    (["closure", "show", "--family", "fourfield", "--kappa", "1/0"],
     "error: invalid rational '1/0'\n"),
    (["verify", "--family", "fourfield", "--kappa", "1/0"],
     "error: invalid rational '1/0'\n"),
    (["closure", "show", "--family", "waterbag", "--heights", "1,1/0,-2"],
     "error: invalid rational '1/0'\n"),
    (["closure", "show", "--family", "generic", "--mu2", "nu1^30000*nu2"],
     "error: mu_2 must be a cubic, of total degree <= 3, got degree 30001\n"),
    (["closure", "eos", "--family", "generic", "--mu2", "nu1^30000*nu2", "--mu", "1,1"],
     "error: mu_2 must be a cubic, of total degree <= 3, got degree 30001\n"),
    (["verify", "--family", "generic", "--mu2", "nu1^30000*nu2"],
     "error: mu_2 must be a cubic, of total degree <= 3, got degree 30001\n"),
    (["closure", "eos", "--family", "burby", "--level", "2", "--mu", "1e308,1e308"],
     "error: leading moment mu_m = 1e+308 overflows: (m+1)|mu_m| = inf\n"),
    (["closure", "eos", "--family", "burby", "--level", "2", "--mu", "1e308,1e-300"],
     "error: the inversion of mu = [1e+308, 1e-300] is not finite: nu = [inf, "),
    (["closure", "eos", "--family", "multidelta", "--mu", "1e300,1e300"],
     "error: no Newton start solves mu = [1e+300, 1e+300]: "),
    (["closure", "eos", "--family", "multidelta", "--mu", "0.36,abc"],
     "error: --mu must be a number, got 'abc'\n"),
], ids=["kappa-flag", "kappa-verify", "heights-flag", "show-quartic", "eos-quartic",
        "verify-quartic", "burby-eos-overflow", "burby-eos-inf-nu", "newton-overflow",
        "mu-not-a-number"])
def test_flag_inputs_that_crashed_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# no input ends in a traceback
# ---------------------------------------------------------------------------

# every value a mutated input may take: none makes a run longer than about
# 100 steps or a grid larger than 64 points
ODD_VALUES = [None, True, False, -1, 0, 1, 2, 0.5, 1e308, -1e308, "x", "1/0", "",
              "-1", "0.5", "1e308", "nan", "nu1^30000*nu2", [], [0], [1, -1], {}, {"x": 1}]
ODD_KEYS = ["x", "L", "nx", "dt", "family", "level", "M", "heights", "kappa", "mu2",
            "metric", "nu_base", "v0", "stride", "tolerance"]
GRID8 = {"L": 6.283185307179586, "nx": 8}
RUN5 = {"scheme": "rk4", "dt": 0.05, "t_end": 0.25}
SIMULATE_BASES = [
    {"grid": GRID8, "closure": {"family": "cold"}, "integrator": RUN5,
     "initial": {"type": "single_mode", "n0": 1.0, "eps": 1e-3}, "output": {"stride": 2}},
    {"grid": {**GRID8, "method": "fd2"}, "closure": {"family": "burby", "level": 2},
     "integrator": {**RUN5, "scheme": "split"},
     "initial": {"eps": 1e-5, "nu_base": [0.05, 0.5], "nu_eps": [1e-6, 1e-6]},
     "output": {"stride": 1, "snapshots": 2}},
    {"grid": GRID8, "closure": {"family": "waterbag", "heights": [1, "1", -2]},
     "integrator": RUN5, "initial": {"nu_base": [0.1]}},
    {"grid": GRID8, "closure": {"family": "generic", "mu2": "nu1^2*nu2",
                                "metric": [[0, 1], ["1", 0]]},
     "integrator": RUN5, "initial": {"nu_base": [0.1, 0.2]}},
    {"grid": GRID8, "closure": {"family": "fourfield", "kappa": "1/2"},
     "integrator": RUN5, "initial": {"nu_base": [0.1, 0.2]}},
    {"grid": GRID8, "closure": {"family": "multidelta", "M": 2}, "integrator": RUN5},
]
COMPARE_BASE = {"grid": GRID8, "streams": {"n0": 1.0, "v0": 0.2, "eps": 1e-3},
                "integrator": {"dt": 0.05, "t_end": 0.25}, "tolerance": 1e-2}

FAMILY_FLAGS = [
    ("verify", {"--family": "burby", "--level": "2"}),
    ("verify", {"--family": "generic", "--mu2": "nu1^2*nu2", "--metric": "0,1;1,0"}),
    ("closure show", {"--family": "fourfield", "--kappa": "1/2", "--nmax": "3"}),
    ("closure casimir", {"--family": "waterbag", "--heights": "1,1,-2"}),
    ("closure eos", {"--family": "burby", "--level": "2", "--mu": "0.33,2.667"}),
    ("closure eos", {"--family": "multidelta", "--M": "2", "--mu": "0.36,0.324"}),
]
# argparse itself checks these flags' types and choices: their values are
# drawn from what it takes, so that every draw reaches the command
FLAG_VALUES = {"--family": list(_FAMILY_KEYS),
               "--branch": ["plus", "minus"],
               **dict.fromkeys(("--level", "--M", "--nmax"), ["-1", "0", "1", "3"])}
TEXT_VALUES = ["", "x", "1/0", "-1", "0", "0.5", "1e308", "nan", "inf", ",", ";", "1..0",
               "1..3", "1,1/0,-2", "1,-1", "1e308,1e308", "1e300,1e300", "0,1;1,0",
               "0;0", "nu1^2*nu2", "nu1^30000*nu2", "nu1^4", "nu3"]
FLAGS = ["--family", "--level", "--levels", "--M", "--heights", "--kappa", "--mu2",
         "--metric", "--branch"]


# a valid value of each family flag, for adding it where it is foreign
FAMILY_FLAG_SAMPLES = {"--level": "3", "--M": "3", "--heights": "1,1,-2", "--kappa": "1/2",
                       "--mu2": "nu1^2*nu2", "--metric": "0,1;1,0", "--branch": "minus"}


def _config_twin(flags: dict) -> dict:
    """The config `closure` block that names what the family `flags` do."""
    convert = {"--level": int, "--M": int, "--heights": lambda v: v.split(",")}
    return {k[2:]: convert.get(k, str)(v) for k, v in flags.items()
            if k in ("--family", *FAMILY_FLAG_SAMPLES)}


# each FAMILY_FLAGS entry as it is and with each flag its family does not take
PARITY_CASES = {
    f"{command}-{flags['--family']}-{extra or 'own'}":
        (command, {**flags, **({} if extra is None else {extra: FAMILY_FLAG_SAMPLES[extra]})})
    for command, flags in FAMILY_FLAGS
    for extra in [None, *sorted(FAMILY_FLAG_SAMPLES.keys() - flags.keys()
                                - {f"--{k}" for k in _FAMILY_KEYS[flags["--family"]]})]}


@pytest.mark.parametrize("command, flags", PARITY_CASES.values(), ids=PARITY_CASES)
def test_flags_and_config_build_the_same_closure(command, flags, monkeypatch, capsys):
    # flags name a closure as the config keys of their names do: both build
    # the same closure, or both refuse it with the same message
    built, build = [], cli.closure_from_spec
    monkeypatch.setattr(cli, "closure_from_spec",
                        lambda spec: built.append(build(spec)) or built[-1])
    rc = main([*command.split(), *(f"{k}={v}" for k, v in flags.items())])
    err = capsys.readouterr().err
    try:
        twin = closure_from_spec(_config_twin(flags))
    except ValueError as e:
        assert (rc, built, err) == (2, [], f"error: {e}\n")
        return
    assert rc == 0 and len(built) == 1
    assert built[0].name == twin.name
    assert [built[0].mu(n) for n in range(1, 5)] == [twin.mu(n) for n in range(1, 5)]


def _paths(node, path=()):
    """(path, value) of `node` and of every value inside it."""
    yield path, node
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield from _paths(v, (*path, k))


def _mutated(doc, path, op, value, key="x"):
    """A copy of `doc` with one change at `path`: its value replaced by
    `value` or dropped ("replace", "drop"), or `value` added to it, under
    `key` in an object ("add")."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    value = json.loads(json.dumps(value))
    if op == "replace":
        parent[path[-1]] = value
    elif op == "drop":
        del parent[path[-1]]
    else:
        node = parent[path[-1]] if path else doc
        if isinstance(node, dict):
            node[key] = value
        else:
            node.append(value)
    return doc


@st.composite
def mutated_configs(draw):
    """(command, config): a small valid simulate or compare config with one
    change."""
    command = draw(st.sampled_from(["simulate", "compare"]))
    base = draw(st.sampled_from(SIMULATE_BASES)) if command == "simulate" else COMPARE_BASE
    path, node = draw(st.sampled_from(list(_paths(base))))
    ops = (["replace", "drop"] if path else []) + \
        (["add"] if isinstance(node, (dict, list)) else [])
    return command, _mutated(base, path, draw(st.sampled_from(ops)),
                             draw(st.sampled_from(ODD_VALUES)), draw(st.sampled_from(ODD_KEYS)))


@st.composite
def mutated_flags(draw):
    """argv: a valid verify or closure command with one family flag
    replaced, dropped or added."""
    command, flags = draw(st.sampled_from(FAMILY_FLAGS))
    flags = dict(flags)
    op = draw(st.sampled_from(["replace", "drop", "add"]))
    if op == "drop":
        # --family is required: argparse, not the command, refuses its absence
        del flags[draw(st.sampled_from(sorted(set(flags) - {"--family"})))]
    else:
        flag = draw(st.sampled_from(
            sorted(flags) if op == "replace" else
            FLAGS + ["--nmax", "--mu"] if command.startswith("closure") else FLAGS))
        flags[flag] = draw(st.sampled_from(FLAG_VALUES.get(flag, TEXT_VALUES)))
    return [*command.split(), *(f"{k}={v}" for k, v in flags.items())]


def _run_quietly(argv) -> tuple[int, str]:
    """(exit code, stderr) of `main(argv)`, with its stdout dropped, and with
    the solver's CFL warning and numpy's floating-point warnings (a huge
    but finite n0 or L overflows) ignored: they are warnings, not
    tracebacks, but `-W error` would raise them."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "dt=.* exceeds CFL estimate", UserWarning)
        warnings.filterwarnings("ignore", "(overflow|invalid value|divide by zero) encountered",
                                RuntimeWarning)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    return rc, err.getvalue()


def _check_exit(rc, err):
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.startswith(("error: ", "config error: ")) and err.count("\n") == 1, err


# each example ended in a traceback
@example(("simulate", _mutated(SIMULATE_BASES[4], ("closure", "kappa"), "replace", "1/0")))
@example(("simulate", _mutated(SIMULATE_BASES[3], ("closure", "metric", 1, 0), "replace",
                               "1/0")))
@example(("simulate", _mutated(SIMULATE_BASES[3], ("closure", "mu2"), "replace", 1)))
@example(("simulate", _mutated(SIMULATE_BASES[0], ("initial",), "replace", [])))
@example(("simulate", _mutated(SIMULATE_BASES[4], ("closure", "kappa"), "replace", 1e308)))
@settings(max_examples=80, deadline=None)
@given(mutated_configs())
def test_no_config_ends_in_a_traceback(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        _check_exit(*_run_quietly([command, "--config", str(path),
                                   "--out", str(Path(tmp) / "out")]))


# each example ended in a traceback
@example(["closure", "show", "--family=fourfield", "--kappa=1/0"])
@example(["closure", "show", "--family=waterbag", "--heights=1,1/0,-2"])
@example(["closure", "show", "--family=generic", "--mu2=nu1^30000*nu2"])
@example(["closure", "eos", "--family=multidelta", "--M=2", "--mu=1e300,1e300"])
@settings(max_examples=80, deadline=None)
@given(mutated_flags())
def test_no_family_flags_end_in_a_traceback(argv):
    _check_exit(*_run_quietly(argv))
