"""The simulator: clock, event loop, and seeded RNG tree.

The event queue is a binary heap of plain ``[time, seq, callback, args]``
lists. ``seq`` is unique and increases with every scheduling call, so two
events at the same instant fire in the order they were scheduled and list
comparison never reaches the callback. Cancellation is lazy: cancelling an
event clears its callback slot, and the run loop drops the entry when it
reaches the top of the heap. The run loop also clears the slot of every
event it fires, so cancelling a fired event finds nothing to cancel.
"""

from __future__ import annotations

import random
import sys
import weakref
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

from repro.sim.trace import Tracer
from repro.sim.units import to_seconds

#: What :meth:`Simulator.schedule` returns: the heap entry itself. Only
#: :meth:`Simulator.cancel` reads it.
EventHandle = List[Any]

#: Kernel behaviour version: bump this whenever a kernel change alters
#: simulated behaviour (event ordering, RNG stream layout, float arithmetic
#: in the channel/noise models — anything that moves a golden digest in
#: ``tests/golden/``). The token is folded into every
#: :class:`repro.runner.taskspec.TaskSpec` fingerprint, so bumping it
#: invalidates stale result-cache entries instead of silently mixing
#: results from two different kernels. Pure optimisations that keep the
#: golden digests bit-identical must NOT bump it.
KERNEL_BEHAVIOR_VERSION = 1


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a stopped sim)."""


#: Weak reference to the most recently constructed :class:`Simulator` in
#: this process. Lets out-of-band observers (the runner's worker heartbeat
#: thread) sample ``events_executed``/``now`` without any hook in the event
#: loop — zero cost on the kernel hot path, no behaviour change.
_ACTIVE_SIMULATOR: Optional["weakref.ReferenceType[Simulator]"] = None


def active_simulator() -> Optional["Simulator"]:
    """The live, most recently constructed Simulator here, or None."""
    ref = _ACTIVE_SIMULATOR
    return ref() if ref is not None else None


class Simulator:
    """Discrete-event simulator with deterministic, seeded randomness.

    Components ask for named child RNGs via :meth:`rng`; each name maps to an
    independent ``random.Random`` seeded from the master seed, so adding a new
    component (or reordering calls within one) does not perturb the random
    streams of the others.
    """

    def __init__(self, seed: int = 0) -> None:
        global _ACTIVE_SIMULATOR
        _ACTIVE_SIMULATOR = weakref.ref(self)
        self.seed = seed
        self._heap: List[EventHandle] = []
        self._seq = 0
        #: Cancelled entries still in the heap.
        self._cancelled = 0
        self._now = 0
        self._running = False
        self._stopped = False
        self._rngs: Dict[str, random.Random] = {}
        self.tracer = Tracer(self)
        #: Cumulative events dispatched across every :meth:`run` call — the
        #: denominator of the kernel's events/sec throughput metric.
        self.events_executed = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> int:
        """Current simulation time in integer microseconds."""
        return self._now

    @property
    def now_seconds(self) -> float:
        """Current simulation time in float seconds (display/metrics only)."""
        return to_seconds(self._now)

    # ------------------------------------------------------------- randomness
    def rng(self, name: str) -> random.Random:
        """Return the named child RNG, creating it deterministically on first use."""
        rng = self._rngs.get(name)
        if rng is None:
            # Derive a stable per-name seed from the master seed; hash() is
            # salted per-process for str, so use a explicit stable digest.
            digest = 0
            for ch in name:
                digest = (digest * 131 + ord(ch)) % (2**61 - 1)
            rng = random.Random((self.seed << 16) ^ digest)
            self._rngs[name] = rng
        return rng

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        entry = [self._now + delay, seq, callback, args]
        heappush(self._heap, entry)
        return entry

    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute ``time`` microseconds."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self._now}")
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, args]
        heappush(self._heap, entry)
        return entry

    def cancel(self, event: EventHandle) -> None:
        """Cancel a pending event (no-op if already fired or cancelled)."""
        if event[2] is not None:
            event[2] = None
            self._cancelled += 1

    # -------------------------------------------------------------- execution
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop.

        Stops when the queue drains, when the clock would pass ``until``
        (the clock is then advanced exactly to ``until``), after
        ``max_events`` events, or when :meth:`stop` is called. A run cut
        short by ``max_events`` while events up to ``until`` are still
        queued leaves the clock at its last event, so time never moves
        backwards on the next run. Returns the number of events executed.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap
        limit = sys.maxsize if max_events is None else max_events
        executed = 0
        try:
            while heap:
                entry = heap[0]
                time, _seq, callback, args = entry
                if until is not None and time > until:
                    break
                if callback is None:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                if self._stopped or executed >= limit:
                    break
                heappop(heap)
                entry[2] = None
                self._now = time
                callback(*args)
                executed += 1
            if (
                until is not None
                and self._now < until
                and not self._stopped
                and (not heap or heap[0][0] > until)
            ):
                self._now = until
        finally:
            self._running = False
            self.events_executed += executed
        return executed

    def stop(self) -> None:
        """Stop the running event loop after the current event returns."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of events scheduled and neither fired nor cancelled."""
        return len(self._heap) - self._cancelled
