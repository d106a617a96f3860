"""Event and event-queue primitives for the simulation kernel.

Events are ordered by ``(time, sequence)``: two events scheduled for the same
instant fire in the order they were scheduled, which keeps protocol runs
deterministic. Cancellation is O(1) (a tombstone flag); cancelled events are
skipped when popped.

The heap stores ``(time, seq, event)`` tuples rather than bare events:
``seq`` is unique, so tuple comparison never reaches the event object and
heap operations stay in C instead of calling ``Event.__lt__`` millions of
times per run. The ordering is identical to the old event-keyed heap.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.sim.simulator.Simulator.schedule`;
    user code normally only keeps them around to call :meth:`cancel`.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and neither fired nor cancelled."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time}, seq={self.seq}, {name}, {state})"


class EventQueue:
    """Min-heap of :class:`Event` objects ordered by ``(time, seq)``."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: int, callback: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time`` and return the event."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop_due(self, until: Optional[int]) -> Optional[Event]:
        """Pop the earliest pending event if its time is ``<= until``.

        Returns None when the queue is empty or the earliest pending event
        lies beyond ``until`` (which is then left in place). ``until=None``
        means no bound. This fuses the run loop's peek+pop pair into one
        heap traversal.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            head = heap[0]
            event = head[2]
            if event.cancelled:
                heappop(heap)
                continue
            if until is not None and head[0] > until:
                return None
            heappop(heap)
            self._live -= 1
            return event
        self._live = 0
        return None

    def peek_time(self) -> Optional[int]:
        """Return the timestamp of the earliest pending event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            self._live = 0
            return None
        return heap[0][0]

    def note_cancelled(self) -> None:
        """Inform the queue that one pending event was cancelled externally.

        The simulator calls this so ``len(queue)`` stays an upper bound that
        converges to the true count; the heap entry itself is lazily dropped.
        """
        if self._live > 0:
            self._live -= 1

    def clear(self) -> None:
        """Drop every event, cancelling them."""
        for _time, _seq, event in self._heap:
            event.cancelled = True
        self._heap.clear()
        self._live = 0
