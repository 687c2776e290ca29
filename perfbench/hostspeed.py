"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host. Other tenants' load
slows all code in this process, interpreter loops and LAPACK alike, by
10-40% in phases lasting from a few seconds to minutes: more than the
regression bounds in BENCHMARK.json, and too slow to average out within
one run. So the benchmark times a fixed reference kernel, independent of
coronawalk, every INTERVAL_S between ops, and reads from it how slow the
host is at each moment:

    slowdown(t) = geometric mean over the kernels of
                  median(kernel time / NOMINAL_S) over the NEIGHBOURS
                  samples nearest to t

Each op and set-up time is divided by the slowdown at its midpoint, giving
its time at the reference speed: the speed at which the kernels take
NOMINAL_S, their median times on the machine that defined the bounds
(2-core Xeon VM, 2.1 GHz, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31).
The kernels never call coronawalk, so a change to the library moves the
calibrated times exactly as much as it moves the raw ones at a fixed host
speed. The raw times and the slowdowns are printed beside the result.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left
from time import perf_counter

import numpy as np

INTERVAL_S = 0.2
NEIGHBOURS = 8

_MATRIX = np.random.default_rng(0).standard_normal((96, 96))
_MATRIX = _MATRIX + _MATRIX.T


def _python_loop() -> int:
    total = 0
    for i in range(20_000):
        total += i * i
    return total


def _python_objects() -> list:
    rows = [(i, str(i * 7919), i * 0.5) for i in range(1500)]
    table = {key: (i, x) for i, key, x in rows}
    return sorted(table, key=lambda key: key[::-1])[:3]


def _eigh():
    return np.linalg.eigh(_MATRIX)


KERNELS = {"python_loop": _python_loop, "python_objects": _python_objects, "eigh": _eigh}
NOMINAL_S = {"python_loop": 1.6e-3, "python_objects": 1.1e-3, "eigh": 1.1e-3}


class HostSpeed:
    """Reference-kernel samples taken through a run, and the host slowdown
    they give at any moment of it."""

    def __init__(self):
        self.times: list[float] = []
        self.ratios: list[tuple[float, ...]] = []
        self.last = -math.inf

    def sample(self) -> None:
        """Time each kernel once."""
        start = perf_counter()
        ratios = []
        for name, kernel in KERNELS.items():
            t0 = perf_counter()
            kernel()
            ratios.append((perf_counter() - t0) / NOMINAL_S[name])
        self.last = perf_counter()
        self.times.append((start + self.last) / 2)
        self.ratios.append(tuple(ratios))

    def maybe_sample(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def slowdown(self, t: float) -> float:
        """Host slowdown at time t (1 at the reference speed), from the
        NEIGHBOURS samples nearest to t."""
        i = bisect_left(self.times, t)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.times) - NEIGHBOURS))
        window = self.ratios[lo : lo + NEIGHBOURS]
        logs = [math.log(statistics.median(r[k] for r in window)) for k in range(len(KERNELS))]
        return math.exp(statistics.fmean(logs))

    def calibrate(self, start: float, duration: float) -> float:
        """A time measured from `start`, at the reference speed."""
        return duration / self.slowdown(start + duration / 2)

    def median_slowdown(self) -> float:
        return statistics.median(math.exp(statistics.fmean(math.log(x) for x in r)) for r in self.ratios)
