"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
from collections.abc import Sequence

MIN_BEYOND = 10
"""A percentile is reported only when at least this many samples lie
beyond it; with fewer, the tail is one or two unlucky requests."""


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in (0, 100]).

    Interpolation-free: the result is a sample that actually occurred.
    """
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    if len(samples) == 0:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = math.ceil(len(ordered) * q / 100.0 - 1e-9)
    return float(ordered[max(rank, 1) - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank
    ``q``-th percentile's position."""
    return count - max(math.ceil(count * q / 100.0 - 1e-9), 1)


def min_samples_for(q: float) -> int:
    """The smallest sample count that leaves :data:`MIN_BEYOND` samples
    beyond the ``q``-th percentile."""
    count = MIN_BEYOND + 1
    while samples_beyond(count, q) < MIN_BEYOND:
        count += 1
    return count


def reportable(count: int, q: float) -> bool:
    """Whether a ``q``-th percentile of ``count`` samples has at least
    :data:`MIN_BEYOND` samples beyond it (the median always qualifies)."""
    return q <= 50.0 or samples_beyond(count, q) >= MIN_BEYOND
