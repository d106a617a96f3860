"""Small summary-statistics helpers used across metrics and benches."""

from __future__ import annotations

from typing import Optional, Sequence


def mean(values: Sequence[float]) -> Optional[float]:
    """Arithmetic mean, or None for an empty sequence."""
    if not values:
        return None
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Linear-interpolated percentile ``q`` in [0, 100]; None when empty."""
    if not values:
        return None
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac

