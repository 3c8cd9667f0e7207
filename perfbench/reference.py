"""The reference kernel that end-to-end timings are expressed in.

The shared hosts this benchmark runs on change speed by up to ~1.8x for
minutes at a time (perfbench/README.md, "Run-to-run noise"). A fixed
piece of interpreter-bound work, timed between the program's requests in
the same run, slows down with them; dividing the program's timings by its
time cancels most of that drift. The kernel is part of the benchmark, not
of the program, so no change to the program can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from perfbench.workloads import FAST_SHARE

SHARE = 0.05
"""Kernel time kept at about this share of the run's request time."""

WARM_UP = 10
"""Kernel runs before the first request."""


def kernel() -> float:
    """Fixed work: dict updates and float arithmetic in the interpreter,
    then small-array numpy calls (~5-10 ms)."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(30_000):
        key = i & 255
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] * 1e-9
    values = np.linspace(0.0, 1.0, 64)
    for _ in range(400):
        values = np.sqrt(values * values + 1.0) - 0.5
    return total + float(values[0])


def time_kernel() -> float:
    """Wall time of one :func:`kernel` run, in seconds."""
    began = time.perf_counter()
    kernel()
    return time.perf_counter() - began


def floor_s(samples: list[float]) -> float:
    """Mean of the fastest :data:`FAST_SHARE` of the kernel timings (at
    least one): the same reduction the requests get."""
    count = math.ceil(FAST_SHARE * len(samples))
    return sum(sorted(samples)[:count]) / count
