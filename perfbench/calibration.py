"""A fixed reference computation that gauges how fast the host runs Python.

The benchmark's host is shared.  For stretches of seconds to minutes other
tenants slow every instruction by up to 2x, in CPU time as well as in wall
time, so two runs of the same code give rates further apart than any bound
a regression check could use, and neither the median nor the fastest of a
run's repetitions escapes a slow stretch that covers the whole run.

The runner therefore times :func:`kernel` between items and expresses each
item's latency at the reference speed: latency x ``REF_S`` / (the kernel's
median time within ``WINDOW_S`` of the item).  The kernel is exact rational
elimination on a fixed 6x6 matrix, the kind of work the library does most,
written here without the library, so no change to the library moves it.
A change that slows the whole process rather than its own calls (a
background thread, a garbage-collector setting) slows the kernel too and is
partly scaled away; the plain wall rates in the runner's table still show it.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

#: the kernel's median time, in seconds, between items on a quiet host
#: (Intel Xeon vCPU at 2.1 GHz, Python 3.11.7); it only fixes the scale
REF_S = 2.5e-4
#: at most one kernel call per this many seconds of items
EVERY_S = 0.02
#: the half-width of the window whose kernel times gauge an item
WINDOW_S = 0.5

_N = 6
_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4) + (5 if i == j else 0)
            for j in range(_N)] for i in range(_N)]


def kernel() -> Fraction:
    """The determinant of the fixed matrix by Gaussian elimination."""
    m = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for c in range(_N):
        p = next(r for r in range(c, _N) if m[r][c] != 0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, _N):
            f = m[r][c] / m[c][c]
            for j in range(c, _N):
                m[r][j] -= f * m[c][j]
    return det


EXPECTED = kernel()


class Gauge:
    """Kernel timings taken between the items of one pass."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._next = 0.0

    def tick(self, now: float | None = None) -> float:
        """Time the kernel if ``EVERY_S`` has passed since the last call
        (always if ``now`` is None); returns the seconds spent."""
        if now is not None and now < self._next:
            return 0.0
        t0 = perf_counter()
        det = kernel()
        t1 = perf_counter()
        if det != EXPECTED:
            raise RuntimeError("calibration kernel gave a wrong determinant")
        self.times.append(t0)
        self.seconds.append(t1 - t0)
        self._next = t1 + EVERY_S
        return t1 - t0

    def slowdown(self, t: float) -> float:
        """The host's slowdown against the reference around time ``t``."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return statistics.median(near) / REF_S
