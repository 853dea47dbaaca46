"""Order statistics for latency samples."""

from __future__ import annotations

__all__ = ["percentile", "tail", "TAIL_MIN_SAMPLES"]

#: A p99 is reported as such only over at least this many samples.
TAIL_MIN_SAMPLES = 1000


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = q * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def tail(values) -> float:
    """The p99 when there are at least :data:`TAIL_MIN_SAMPLES` values,
    else the highest percentile that keeps ten samples above it."""
    count = len(values)
    if count >= TAIL_MIN_SAMPLES or count == 0:
        return percentile(values, 0.99)
    return percentile(values, max(0.5, 1.0 - 10.0 / count))
