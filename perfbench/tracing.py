"""Span tracing of the hydroclosures layers, from outside the package.

`Tracer.install()` replaces each traced function under every name it is
looked up by: the class attributes of `MultiPoly` (both `__mul__` and
`__rmul__`), `ClosureFamily`, `Grid`, `_ClosureTables` and `cli.Report`,
the module attributes of `sim`, `ratmat`, `closures` and `moments`, the
names `cli` and `bracket` import from `closures` and `moments`, and
numpy's `rfft`/`irfft`. A name patched in its defining module only would
miss every call made through an imported copy.

A span is [name, start, end, parent index, command label, time covered by
child spans, outermost-of-its-name flag]. Spans and counters stay in memory
until `write_spans` and `summary` are called after the pass.
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import time
import weakref
from collections import defaultdict

import numpy as np

from hydroclosures import bracket, cli, closures, moments, ratmat, sim
from hydroclosures.poly import MultiPoly


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.cmd = None
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._serial = weakref.WeakKeyDictionary()  # closure -> serial number
        self._serials = itertools.count()
        self._mu_keys: set = set()
        self._patches: list[tuple] = []

    def begin_command(self, label: str):
        self.cmd = label

    # -- wrappers -------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(result, args)` runs
        once the span has ended, to update counters."""
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cmd, 0.0,
                   depth[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                depth[name] -= 1
                stack.pop()
                if rec[3] >= 0:
                    spans[rec[3]][5] += end - rec[1]
            if after is not None:
                after(out, args)
            return out

        return traced

    def count(self, name: str, fn):
        """`fn` adding 1 to counter `name` per call."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, attr: str, wrapper, *owners):
        for owner in owners:
            if attr in vars(owner):
                self._patches.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    # -- counters updated after a span ----------------------------------

    def _terms(self, out, args):
        if isinstance(out, MultiPoly) and len(out.terms) > self.counts["poly.max_terms"]:
            self.counts["poly.max_terms"] = len(out.terms)

    def _mu_key(self, out, args):
        closure, n = args[0], args[1]
        if closure not in self._serial:
            self._serial[closure] = next(self._serials)
        self._mu_keys.add((self._serial[closure], n))

    def _identities(self, out, args):
        self.counts["bracket.identities"] += len(out.checks)

    def _written(self, out, args):
        self.counts["sim.io.bytes"] += os.path.getsize(args[0])

    def _fft(self, fn, points):
        counts = self.counts

        @functools.wraps(fn)
        def fft(*args, **kwargs):
            counts["sim.fft.calls"] += 1
            counts["sim.fft.points"] += points(args, kwargs)
            return fn(*args, **kwargs)
        return fft

    def _compile_float(self, original):
        def compile_float(poly):
            return self.span("poly.eval_float", original(poly))
        return compile_float

    def _emit(self, original):
        io_span = self.span("sim.io", original)

        def emit(report, as_json, out=None):
            # a report file is written only when the command has --out
            return (original if out is None else io_span)(report, as_json, out)
        return emit

    # -- install / uninstall --------------------------------------------

    def install(self):
        mul = self.span("poly.mul", MultiPoly.__mul__, self._terms)
        self._patch("__mul__", mul, MultiPoly)
        self._patch("__rmul__", mul, MultiPoly)
        self._patch("__pow__", self.span("poly.pow", MultiPoly.__pow__, self._terms), MultiPoly)
        self._patch("__init__", self.count("poly.init.calls", MultiPoly.__init__), MultiPoly)
        self._patch("diff", self.span("poly.diff", MultiPoly.diff), MultiPoly)
        self._patch("compile_float", self._compile_float(MultiPoly.compile_float), MultiPoly)

        self._patch("mu", self.span("closures.mu", closures.ClosureFamily.mu, self._mu_key),
                    closures.ClosureFamily)
        self._patch("waterbag_s", self.span("closures.waterbag_s", closures.waterbag_s),
                    closures, cli)
        for name in ("burby_invert", "newton_invert", "equation_of_state"):
            self._patch(name, self.span("closures.invert", getattr(closures, name)),
                        closures, cli)

        for name in ("mu_alpha_entry", "mu_beta_entry"):
            self._patch(name, self.count("moments.entries", getattr(moments, name)),
                        moments, bracket)
        self._patch("alpha_beta_in_mu",
                    self.span("moments.alpha_beta", moments.alpha_beta_in_mu), moments, cli)
        self._patch("check_flatness",
                    self.span("bracket.flatness", bracket.check_flatness, self._identities),
                    bracket)

        for name, fn in list(vars(ratmat).items()):
            if callable(fn) and getattr(fn, "__module__", None) == ratmat.__name__:
                self._patch(name, self.span("ratmat", fn), ratmat)

        self._patch("step", self.span("sim.step", sim.step), sim)
        for name in ("rhs_fluid", "rhs_streams", "_split_derivs"):
            self._patch(name, self.span("sim.rhs", getattr(sim, name)), sim)
        for name in ("poisson_solve", "electric_potential"):
            self._patch(name, self.span("sim.field_solve", getattr(sim, name)), sim)
        self._patch("deriv", self.span("sim.deriv", sim.Grid.deriv), sim.Grid)
        self._patch("__init__", self.span("sim.tables", sim._ClosureTables.__init__),
                    sim._ClosureTables)
        self._patch("diagnostics", self.span("sim.diagnostics", sim.diagnostics), sim)
        self._patch("cfl_dt", self.span("sim.cfl", sim.cfl_dt), sim)
        for name in ("step_streams", "check_wave_breaking"):
            self._patch(name, self.span("sim.streams", getattr(sim, name)), sim)
        for name in ("write_diagnostics_csv", "write_snapshot"):
            self._patch(name, self.span("sim.io", getattr(sim, name), self._written), sim)
        self._patch("emit", self._emit(cli.Report.emit), cli.Report)

        self._patch("rfft", self._fft(np.fft.rfft, _rfft_points), np.fft)
        self._patch("irfft", self._fft(np.fft.irfft, _irfft_points), np.fft)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer totals: calls, self seconds and outermost seconds per
        span name, every step's duration, the counters and the mu hit ratio."""
        calls, self_s, outer_s = defaultdict(int), defaultdict(float), defaultdict(float)
        steps = []
        for name, start, end, _, _, child, outermost in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child
            if outermost:
                outer_s[name] += end - start
            if name == "sim.step":
                steps.append(end - start)
        mu_calls = calls["closures.mu"]
        return {"calls": dict(calls), "self_s": dict(self_s), "s": dict(outer_s),
                "step_s": steps, "counts": dict(self.counts),
                "mu_hit_ratio": 1.0 - len(self._mu_keys) / mu_calls if mu_calls else 0.0}

    def write_spans(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "name", "start", "end", "parent", "command", "self_s"])
            for i, (name, start, end, parent, cmd, child, _) in enumerate(self.spans):
                w.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, cmd,
                            f"{end - start - child:.9f}"])


# Points transformed by one call: the real signal's length times the
# number of signals (sim transforms along the last axis only).
def _rfft_points(args, kwargs) -> int:
    return int(np.size(args[0]))


def _irfft_points(args, kwargs) -> int:
    a = np.asarray(args[0])
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is None:
        n = 2 * (a.shape[-1] - 1)
    return int(n) * (a.size // a.shape[-1])
