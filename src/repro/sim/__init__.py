"""Discrete-event simulation kernel.

The kernel is deliberately small and callback-based: components schedule
callables on a :class:`~repro.sim.simulator.Simulator` and react to events.
Time is kept as integer microseconds so that runs are exactly reproducible
across platforms (no floating-point drift in the event queue).

Public surface:

- :class:`Simulator` — clock, event queue, seeded RNG tree. ``schedule``
  returns an opaque handle that only ``cancel`` reads.
- :class:`Tracer` — structured trace records for tests and debugging.
- time helpers in :mod:`repro.sim.units` (``MICROSECOND``..``MINUTE``,
  ``from_seconds``/``to_seconds``).
"""

from repro.sim.simulator import KERNEL_BEHAVIOR_VERSION, Simulator
from repro.sim.trace import TraceRecord, Tracer
from repro.sim.units import (
    MICROSECOND,
    MILLISECOND,
    MINUTE,
    SECOND,
    from_seconds,
    to_seconds,
)

__all__ = [
    "KERNEL_BEHAVIOR_VERSION",
    "Simulator",
    "Tracer",
    "TraceRecord",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "MINUTE",
    "from_seconds",
    "to_seconds",
]
