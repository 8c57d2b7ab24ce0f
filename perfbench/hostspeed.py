"""Host-speed normalisation of the end-to-end times.

The benchmark runs on a few vCPUs of a shared host.  There the same
fixed work takes from 0.6x to 1.6x its usual time, in phases that last
seconds to minutes, longer than one run.  Raw wall times of two runs of
the same code therefore differ by more than any change worth gating.

A :class:`HostClock` times a fixed pure-Python loop (:func:`calibrate`,
independent of the code under test) every :data:`PERIOD_S` seconds
while a workload runs, from a ``SIGALRM`` handler in the main thread.
A workload that keeps other processes busy samples by hand instead, at
points where they are idle, so that no sample competes with them.
The time between two samples counts as ``gap * REF_S / mean(the two
samples)``: seconds on a host where the loop takes :data:`REF_S`.  The
samples' own time is left out of both the raw and the normalised time.
A program change moves the gaps and not the samples, so it shows in
the normalised time as it would in the raw one.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional, Tuple

#: Iterations of the calibration loop (about 9 ms on the reference host).
LOOP = 100_000
#: The loop's median time on the reference host (a 2-vCPU Xeon VM,
#: CPython 3.11): the speed every normalised time is expressed at.
REF_S = 0.009
#: Seconds between two samples while a clock runs.
PERIOD_S = 0.25
#: Samples taken on each side of a bracketed interval.
BRACKET_SAMPLES = 3


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    return time.perf_counter() - start


def bracket_factor(before: List[float], after: List[float]) -> float:
    """Normalising factor for an interval between two sets of samples
    taken by the process that did the work."""
    return REF_S / statistics.mean(
        [statistics.median(before), statistics.median(after)]
    )


class HostClock:
    """Samples the host's speed while active (``with HostClock() as
    clock``) and converts intervals read with ``time.perf_counter()``
    inside that block into raw and normalised seconds.  With
    ``period_s=None`` it samples only on entry, on exit and when
    :meth:`sample` is called."""

    def __init__(self, period_s: Optional[float] = PERIOD_S):
        self.period_s = period_s
        #: ``(start, end)`` of every calibration sample, in order.
        self.samples: List[Tuple[float, float]] = []

    def __enter__(self) -> "HostClock":
        self.sample()
        if self.period_s is not None:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(
                signal.ITIMER_REAL, self.period_s, self.period_s
            )
        return self

    def __exit__(self, *exc) -> None:
        if self.period_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        calibrate()
        self.samples.append((start, time.perf_counter()))

    def _gaps(self, t0: float, t1: float):
        """``(seconds of [t0, t1] in the gap, gap's factor)`` for every
        gap between two consecutive samples that overlaps [t0, t1].
        A sample is taken first if none started after ``t1`` yet."""
        if t1 > self.samples[-1][0]:
            self.sample()
        for (s0, e0), (s1, e1) in zip(self.samples, self.samples[1:]):
            overlap = min(s1, t1) - max(e0, t0)
            if overlap > 0:
                yield overlap, REF_S / ((e0 - s0 + e1 - s1) / 2)

    def raw(self, t0: float, t1: float) -> float:
        """Wall seconds of [t0, t1] outside the calibration samples."""
        return sum(overlap for overlap, _ in self._gaps(t0, t1))

    def normalised(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the reference host speed."""
        return sum(overlap * factor for overlap, factor in self._gaps(t0, t1))

    def speed(self) -> float:
        """Median host speed over the samples (1.0 = reference)."""
        return REF_S / statistics.median(e - s for s, e in self.samples)


class PlainClock:
    """Same interface, no sampling: for traced runs, whose spans must
    not contain calibration samples."""

    def __enter__(self) -> "PlainClock":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def sample(self) -> None:
        pass

    @staticmethod
    def raw(t0: float, t1: float) -> float:
        return t1 - t0

    normalised = raw

    @staticmethod
    def speed() -> float:
        return 1.0
