"""Host speed, measured with a fixed calibration loop.

Shared cloud hosts speed up and slow down by up to about 2x for seconds at
a time (BASELINE.md has the measurement); CPU time moves with wall time, so
the cause is outside this process.  The benchmark therefore times this
fixed loop between segments of about 0.05 s of solving and scales each
solve by ``NOMINAL_S / loop time``: the result is the solve's time at the
host speed where the loop takes ``NOMINAL_S``.  The loop mixes the
operations ffreach spends its time on (``Fraction`` row operations, tuple
markings in dicts, a heap), so both slow down together.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from time import perf_counter

#: Calibration loop time that defines the reference host speed.
NOMINAL_S = 0.005


def calibration_loop() -> int:
    row = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(24)]
    for k in range(6):
        f = row[k] or Fraction(1)
        row = [a - f * b for a, b in zip(row, row[1:] + row[:1])]
        row = [Fraction(a.numerator % 97, a.denominator % 89 + 1) for a in row]
    seen: dict = {}
    heap = [(0, (0, 0, 0, 0))]
    while heap and len(seen) < 300:
        d, m = heapq.heappop(heap)
        if m in seen:
            continue
        seen[m] = d
        for t in range(4):
            succ = tuple(v + (i == t) for i, v in enumerate(m))
            if succ not in seen:
                heapq.heappush(heap, (d + 1 + t % 2, succ))
    return len(seen) + len(row)


def loop_seconds() -> float:
    t0 = perf_counter()
    calibration_loop()
    return perf_counter() - t0


class SpeedTracker:
    """Times the loop on demand; ``scale`` converts wall seconds of work
    done since the previous timing into reference-speed seconds.  It uses
    the median of the last three timings, so one interrupted loop does not
    distort a whole segment."""

    def __init__(self):
        self.recent = [loop_seconds()]

    def scale(self) -> float:
        self.recent = (self.recent + [loop_seconds()])[-3:]
        ordered = sorted(self.recent)
        return NOMINAL_S / ordered[len(ordered) // 2]
