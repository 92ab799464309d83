"""Measure how much this host's speed moves, with nothing else running.

    python3 perfbench/noise.py [--seconds 60]

Times the calibration loop of hostspeed.py back to back and prints, per
window of WINDOW_S seconds, the median loop time; then the spread
(Q3 - Q1) / median of the window medians, their range, and the ratio of
process CPU time to wall time (near 1 means the slowdowns come from the
host, not from other local processes).
"""

from __future__ import annotations

import argparse
import statistics
import time

import hostspeed

WINDOW_S = 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()

    windows: list[float] = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    end = wall0 + args.seconds
    while time.perf_counter() < end:
        stop = time.perf_counter() + WINDOW_S
        loops = []
        while time.perf_counter() < stop:
            loops.append(hostspeed.loop_seconds())
        windows.append(statistics.median(loops))
    cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    q1, med, q3 = statistics.quantiles(windows, n=4)
    print("window medians (ms): " + " ".join(f"{w * 1000:.2f}" for w in windows))
    print(f"{len(windows)} windows of {WINDOW_S:g} s: median {med * 1000:.3f} ms,"
          f" spread {(q3 - q1) / med:.3f}, range {min(windows) * 1000:.3f}-{max(windows) * 1000:.3f} ms"
          f" ({max(windows) / min(windows):.2f}x), cpu/wall {cpu_share:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
