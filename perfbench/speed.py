"""Host-speed probe: reference seconds that a shared host's drift does not move.

This benchmark runs on a few vCPUs of a shared host.  There the same
`tropcover prym` item takes anywhere from 1.4 s to 2.5 s within a few
minutes, with identical output, because the speed of the vCPU drifts
with the other tenants' load.  Within one process, though, two different
fixed pieces of work slow down together: measured side by side at 0.1 s
granularity their times correlate at 0.98, and their ratio varies by 2
to 6 % while each alone varies by 16 to 27 %.

So the worker runs `probe()`, a fixed sliver of work of the program's
kind (Fraction products and an integer loop), from a SIGALRM timer every
`PERIOD_S` seconds, and records when each probe ran and how long it took.
A span of the worker is then given in *reference seconds*: its wall time
minus the probes inside it, divided by the slow-down factor (the median
probe time around the span over `REFERENCE_PROBE_S`).  A reference
second is a second on a host where the probe takes `REFERENCE_PROBE_S`,
about the probe's uncontended time on a 2.1 GHz Xeon vCPU with CPython
3.11.  A change to the program moves reference seconds as it moves wall
seconds; a slow minute of the host barely moves them.  The probe costs
about 2 % of the run, which counts in the wall seconds that are
reported next to the reference seconds.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
REFERENCE_PROBE_S = 0.0003
CONTEXT_S = 1.0    # probes this far around a span also count for its factor

_MATRIX = [[Fraction(7 * i + 3 * j - 10, i + j + 2) for j in range(3)] for i in range(3)]


def probe():
    """A fixed sliver of work of the program's kind."""
    a = _MATRIX
    product = [[sum(a[i][k] * a[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    total = 0
    for i in range(3000):
        total += i * i % 7
    return product, total


class Probe:
    """Runs `probe()` from a SIGALRM timer; `samples` holds (start, seconds)."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        try:
            probe()
        except RecursionError:  # the program is at its recursion limit; skip this one
            return
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference_seconds(samples: list, start: float, end: float) -> float:
    """Reference seconds of the span [start, end] of a process probed into `samples`."""
    inside = sum(seconds for at, seconds in samples if start <= at < end)
    around = [seconds for at, seconds in samples
              if start - CONTEXT_S <= at < end + CONTEXT_S]
    if not around:
        raise ValueError("no probe ran near this span")
    slowdown = statistics.median(around) / REFERENCE_PROBE_S
    return (end - start - inside) / slowdown
