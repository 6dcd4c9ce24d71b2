"""Host speed probe: a fixed piece of Fraction and dict arithmetic that runs no
code of hydroclosures.

The benchmark's host is shared, and its speed drifts by tens of percent
over minutes (see README.md). A child times this probe right after set-up,
between commands, and every SAMPLE_EVERY_S while a command runs (from a
timer signal, so that one long command is sampled along its length). Each
measured time is scaled by REFERENCE_S over the probe times taken with it,
so the gated times are seconds at the reference speed and a drift of the
host cancels out of them. Timed next to each other in one process, probe
and workload drift together: over 30-second windows of a drifting host, the
interquartile spread of verify-style command times fell from 0.16 to 0.03
of the median when divided by the probe time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.02  # probe time at the speed the baseline is quoted at
REPEATS = 3
SAMPLE_EVERY_S = 1.0


def _work():
    acc = {}
    x = Fraction(1, 3)
    for i in range(2500):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, Fraction(0)) + x * Fraction(i + 1, 7)
        x = x * Fraction(3, 2) if i % 50 else Fraction(1, 3)


def _timed() -> float:
    t = time.perf_counter()
    _work()
    return time.perf_counter() - t


def probe_s() -> float:
    """Median of REPEATS timings of the probe work."""
    return statistics.median(_timed() for _ in range(REPEATS))


class Sampler:
    """Times the probe work every SAMPLE_EVERY_S while the block runs.

    `samples` holds the timings; `spent_s` is the time the samples took,
    which the caller subtracts from the block's time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(_timed())
        self.spent_s += time.perf_counter() - t

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
