"""Machine-speed reference timed during every run.

The same pure-Python work runs up to 40% slower on the shared 2-core box
for stretches of seconds to minutes.  A fixed arithmetic loop is timed in
short bursts between operations.  It is part of the benchmark, so no
change to the package can move it.  run.py scales each duration by
REFERENCE_S over the median burst within WINDOW_S of it.  Of the kernels
tried, this plain loop tracked the package's speed best; kernels built
from AGM sweeps and adaptive quadrature tracked it worse.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 1.6e-3  # loop time on the 2-core box of the baselines in its fast phase
INTERVAL_S = 0.1      # at most one burst per tenth of a second of run time
BURST = 3
WINDOW_S = 0.15       # the speed changes within a second; only nearby bursts track it


def kernel() -> float:
    total = 0.0
    for i in range(30000):
        total += i * 0.5
    return total


class Sampler:
    """Bursts of kernel timings with the time each was taken."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (time, median kernel seconds)
        self.burst()

    def burst(self) -> None:
        times = []
        for _ in range(BURST):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self._last = time.perf_counter()
        self.samples.append((self._last, statistics.median(times)))

    def catch_up(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.burst()


def local_scales(samples: list[tuple[float, float]],
                 intervals: list[tuple[float, float]]) -> list[float]:
    """Per-operation factor to reference speed, from the bursts taken within
    WINDOW_S of the operation (the nearest burst when none is that close)."""
    scales = []
    for start, end in intervals:
        near = [s for when, s in samples if start - WINDOW_S <= when <= end + WINDOW_S]
        if not near:
            near = [min(samples, key=lambda p: abs(p[0] - start))[1]]
        scales.append(REFERENCE_S / statistics.median(near))
    return scales
