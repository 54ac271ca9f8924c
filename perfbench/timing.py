"""Timing of calls into coinpress, scaled to a reference machine speed.

A shared machine runs the same code up to about twice as slowly for
minutes at a time. A fixed pure-Python reference kernel is timed before and
after every timed block; the block's time scaled by REFERENCE_S over the
kernel time around it cancels most of that drift. The kernel never calls
coinpress, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Seconds reference_kernel() takes when the machine the baseline was
# measured on (Xeon at 2.1 GHz, Python 3.11.7) is not slowed by other load.
REFERENCE_S = 0.0025


def reference_kernel():
    """Work of the same kind as coinpress's: int bit arithmetic and exact
    Fraction sums with growing denominators."""
    acc = 0
    for i in range(20000):
        acc ^= (i * 2654435761) >> 3
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(k, k * k + 1)
    return acc, total


def reference_seconds() -> float:
    """Median of five timed runs of the reference kernel.

    The garbage collector is paused so that collecting the workload's
    heap is not charged to the kernel.
    """
    times = []
    gc.disable()
    try:
        for _ in range(5):
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


class Stopwatch:
    """Times ``with`` blocks; each block is one (seconds, reference seconds)
    segment, the reference being the mean of the kernel timings just
    before and just after it."""

    def __init__(self):
        self.segments: list[tuple[float, float]] = []
        self._ref = reference_seconds()
        self._t0 = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        seconds = time.perf_counter() - self._t0
        ref = reference_seconds()
        self.segments.append((seconds, (self._ref + ref) / 2))
        self._ref = ref
        return False


def scaled(segments) -> float:
    """Seconds of the segments at the reference machine speed."""
    return sum(seconds * REFERENCE_S / ref for seconds, ref in segments)
