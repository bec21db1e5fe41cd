"""Wall time scaled to a reference machine speed.

The benchmark host is shared: a core's speed drifts by 30% and more over
tens of seconds while other tenants come and go, and a slow stretch lasts
longer than one run, so raw call times from two runs of the same code differ
by more than any regression worth catching.  :class:`RefClock` runs a fixed
reference kernel (small numpy calls plus interpreted arithmetic, the mix
geonull itself executes) every ``INTERVAL_S`` between requests, and scales
each measured interval by ``REFERENCE_S / kernel time near that interval``.
A scaled second is a second on a core that runs the kernel in
``REFERENCE_S``: the kernel's time on an uncontended core of a 2.0 GHz Xeon.

The kernel never touches geonull, so a change to the program moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

REFERENCE_S = 2.0e-3
INTERVAL_S = 0.1
# kernel runs per sampling point; their median damps the jitter of one run
BURST = 3
# kernel samples this close to an interval's ends also describe it
MARGIN_S = 0.15

# bound at import, before a tracer can wrap numpy.linalg.svd
_svd = np.linalg.svd
_BASE = np.array([[4.0, 1.0, 0.0, 0.0], [1.0, 3.0, 1.0, 0.0], [0.0, 1.0, 2.0, 1.0], [0.0, 0.0, 1.0, 1.0]])


def reference_kernel() -> float:
    acc = 0.0
    for i in range(120):
        b = _BASE + i * 1e-3
        acc += float(_svd(b, compute_uv=False)[0])
        acc += float(np.einsum("ij,jk->ik", b, b)[0, 0])
        acc += sum(math.cos(x * 0.1) for x in range(20))
    return acc


class RefClock:
    """Samples the reference kernel and scales intervals by its speed."""

    def __init__(self):
        self._times: list = []  # sample midpoints, increasing
        self._durations: list = []

    def sample(self) -> None:
        for _ in range(BURST):
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
            self._times.append(0.5 * (start + end))
            self._durations.append(end - start)

    def tick(self) -> None:
        """Sample when the last sample is older than INTERVAL_S."""
        if not self._times or time.perf_counter() - self._times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time around [start, end]."""
        lo = bisect.bisect_left(self._times, start - MARGIN_S)
        hi = bisect.bisect_right(self._times, end + MARGIN_S)
        # always include the nearest sample on each side
        lo = max(0, min(lo, bisect.bisect_left(self._times, start) - 1))
        hi = min(len(self._times), max(hi, bisect.bisect_right(self._times, end) + 1))
        return REFERENCE_S / statistics.median(self._durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)

    @property
    def raw_median_s(self) -> float:
        return statistics.median(self._durations)
