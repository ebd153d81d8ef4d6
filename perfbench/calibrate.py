"""Host-speed calibration for every timed figure of the benchmark.

On a shared host the same Python code runs up to twice as slow in some
stretches as in others, in stretches from a tenth of a second to whole
minutes.  It is the speed of the CPU that changes: the process's CPU time
rises with its wall time, and the host reports next to no steal time.  The
fastest or the median of a run's repeats cannot remove a slowdown that
lasts the whole run, so two runs of the same code differed by a quarter.

So every time is scaled by the host's speed, measured with a probe: a
fixed piece of pure-Python work (Fraction arithmetic, tuples and a set, as
in the package) that does not depend on the code under test.  A probe that
takes p seconds means a speed of REFERENCE_S / p, and a wall time t at
speed v is reported as t * v: seconds at the host speed at which one probe
takes REFERENCE_S.  REFERENCE_S is about what the probe takes on a 2-core
x86-64 VM with Python 3.11.7 in its fast state; its exact value only
scales every figure by the same factor.

Operations of the package run for up to a few seconds, and the speed
changes within one, so a probe before and after is not enough: while
operations run, a SIGALRM handler probes every PERIOD_S seconds, and an
operation's speed is the mean over the probes during it and the nearest
one on each side.  The probes' own time is taken out of the operation's.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from statistics import fmean
from time import perf_counter

from checks import group_elements

PROBE_GROUP = "1/6(1,0,5)+1/6(0,1,5)"
REFERENCE_S = 0.00075
PERIOD_S = 0.03


def probe_s() -> float:
    """Wall time of one probe."""
    start = perf_counter()
    group_elements(PROBE_GROUP)
    return perf_counter() - start


def speed(probes: list[float]) -> float:
    return fmean(REFERENCE_S / p for p in probes)


class SpeedSampler:
    """Probes taken every PERIOD_S seconds of wall time while running."""

    def __init__(self):
        self.starts: list[float] = []
        self.probes: list[float] = []

    def _probe(self, signum, frame) -> None:
        start = perf_counter()
        group_elements(PROBE_GROUP)
        self.starts.append(start)
        self.probes.append(perf_counter() - start)

    @contextmanager
    def running(self):
        """Probe now, every PERIOD_S until the block ends, and then."""
        self._probe(None, None)
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._probe(None, None)

    def scaled(self, start: float, end: float) -> float:
        """The wall time from start to end, less the probes in it, in
        reference seconds."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        inside = sum(self.probes[lo:hi])
        around = self.probes[max(lo - 1, 0):hi + 1]
        return (end - start - inside) * speed(around)
