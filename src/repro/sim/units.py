"""Time units for the simulation kernel.

All simulator timestamps and delays are integers counted in microseconds.
Using integers keeps the event queue totally ordered and deterministic; the
helpers below convert to and from float seconds at the API boundary only.
"""

from __future__ import annotations

MICROSECOND: int = 1
MILLISECOND: int = 1000 * MICROSECOND
SECOND: int = 1000 * MILLISECOND
MINUTE: int = 60 * SECOND
HOUR: int = 60 * MINUTE


def from_seconds(seconds: float) -> int:
    """Convert float seconds to integer simulator ticks (microseconds).

    Rounds to the nearest tick so ``from_seconds(to_seconds(t)) == t`` for
    every tick value that fits in a double's 53-bit mantissa.
    """
    return round(seconds * SECOND)


def to_seconds(ticks: int) -> float:
    """Convert integer simulator ticks (microseconds) to float seconds."""
    return ticks / SECOND
