"""Reference-speed probe: rescales measured durations to a fixed machine speed.

On a shared machine the speed of one core drifts by up to 1.7x within
seconds, so the same program reads very differently from one run to the
next.  The benchmark therefore runs a small fixed pure-Python job (the
probe) between measurements, and reports every duration in *reference
seconds*: the measured duration times :data:`REFERENCE_PROBE_S` divided
by the probe time taken around it.  On a machine where the probe takes
exactly :data:`REFERENCE_PROBE_S`, reference seconds are plain seconds.
The probe is part of the benchmark, not of the program, so a change to
the program moves the reported figures in full.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable, List

#: Median probe CPU time on the reference box (2-core Xeon at 2.0 GHz), s.
REFERENCE_PROBE_S = 0.00285

#: One probe runs the job this many times and keeps the median.
_REPEATS = 3
_ITERATIONS = 13_000


def probe_s(repeats: int = _REPEATS) -> float:
    """Thread CPU seconds of the fixed reference job (median of repeats)."""
    times = []
    for _ in range(repeats):
        started = time.thread_time()
        table: dict = {}
        for i in range(_ITERATIONS):
            key = i & 1023
            table[key] = table.get(key, 0) + i
        sorted(table.values())
        times.append(time.thread_time() - started)
    return statistics.median(times)


class SpeedTrack:
    """Probes taken over time, and the scale factor they imply at any time.

    The factor at time ``t`` converts a duration measured around ``t``
    to reference seconds: ``REFERENCE_PROBE_S`` over the mean of the
    probes just before and just after ``t``.
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, repeats: int = _REPEATS
    ) -> None:
        self.clock = clock
        self.repeats = repeats
        self.times: List[float] = []
        self.probes: List[float] = []

    def take(self) -> None:
        self.times.append(self.clock())
        self.probes.append(probe_s(self.repeats))

    def scale_at(self, when: float) -> float:
        if not self.probes:
            return 1.0
        after = bisect.bisect_left(self.times, when)
        around = self.probes[max(0, after - 1) : after + 1]
        return REFERENCE_PROBE_S / (sum(around) / len(around))

    def mean_scale(self) -> float:
        if not self.probes:
            return 1.0
        return REFERENCE_PROBE_S / statistics.fmean(self.probes)
