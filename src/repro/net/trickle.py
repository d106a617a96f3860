"""The Trickle algorithm (Levis et al., NSDI 2004; RFC 6206).

Trickle governs when CTP sends routing beacons and when Drip re-broadcasts
dissemination messages: transmissions are suppressed when the neighbourhood
is consistent (the interval doubles up to ``i_max``) and the interval resets
to ``i_min`` on any inconsistency, producing fast convergence with low
steady-state traffic.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.simulator import EventHandle, Simulator
from repro.sim.units import MILLISECOND, SECOND


class TrickleTimer:
    """One Trickle instance.

    Parameters follow RFC 6206: ``i_min`` (ticks), ``i_max_doublings`` (so the
    maximum interval is ``i_min * 2**i_max_doublings``), and redundancy ``k``
    (a firing is suppressed when ``k`` or more consistent messages were heard
    in the current interval; ``k = 0`` disables suppression).
    """

    def __init__(
        self,
        sim: Simulator,
        on_fire: Callable[[], None],
        i_min: int = 512 * MILLISECOND,
        i_max_doublings: int = 8,
        k: int = 1,
        rng_name: Optional[str] = None,
    ) -> None:
        if i_min <= 1:
            raise ValueError("i_min must be > 1 tick")
        if i_max_doublings < 0:
            raise ValueError("i_max_doublings must be >= 0")
        self.sim = sim
        self.on_fire = on_fire
        self.i_min = i_min
        self.i_max = i_min << i_max_doublings
        self.k = k
        self._rng = sim.rng(rng_name or f"trickle-{id(self)}")
        self.interval = i_min
        self.counter = 0
        self._fire_event: Optional[EventHandle] = None
        self._interval_event: Optional[EventHandle] = None
        self._running = False

    # ----------------------------------------------------------------- state
    @property
    def running(self) -> bool:
        """True while active."""
        return self._running

    def start(self) -> None:
        """Begin with the minimum interval (idempotent)."""
        if self._running:
            return
        self._running = True
        self.interval = self.i_min
        self._begin_interval()

    def stop(self) -> None:
        """Halt; pending firings are cancelled."""
        self._running = False
        self._cancel_pending()

    def reset(self) -> None:
        """Inconsistency: restart at ``i_min`` (no-op if already there and running)."""
        if not self._running:
            self.start()
            return
        if self.interval == self.i_min:
            return
        self.interval = self.i_min
        self._cancel_pending()
        self._begin_interval()

    def hear_consistent(self) -> None:
        """Count a consistent message toward suppression."""
        self.counter += 1

    def hear_inconsistent(self) -> None:
        """A message signalling inconsistency resets the interval."""
        self.reset()

    # -------------------------------------------------------------- internals
    def _cancel_pending(self) -> None:
        if self._fire_event is not None:
            self.sim.cancel(self._fire_event)
        if self._interval_event is not None:
            self.sim.cancel(self._interval_event)
        self._fire_event = None
        self._interval_event = None

    def _begin_interval(self) -> None:
        self.counter = 0
        half = self.interval // 2
        t = half + self._rng.randrange(max(self.interval - half, 1))
        self._fire_event = self.sim.schedule(t, self._maybe_fire)
        self._interval_event = self.sim.schedule(self.interval, self._interval_over)

    def _maybe_fire(self) -> None:
        if not self._running:
            return
        if self.k == 0 or self.counter < self.k:
            self.on_fire()

    def _interval_over(self) -> None:
        if not self._running:
            return
        self.interval = min(self.interval * 2, self.i_max)
        self._begin_interval()


#: Convenience defaults for CTP's beacon timer. TinyOS uses Imin = 128 ms;
#: we use one wake-up interval (512 ms) because every beacon is a full LPL
#: broadcast train here, and a sub-train Imin just queues congesting trains
#: and churns the link estimator. Code cascades ride the (fast, debounced)
#: TeleAdjusting beacons instead.
CTP_BEACON_I_MIN = 512 * MILLISECOND
CTP_BEACON_I_MAX_DOUBLINGS = 9  # up to ~262 s
CTP_BEACON_K = 0  # CTP does not suppress beacons

#: Drip (dissemination) defaults.
DRIP_I_MIN = 128 * MILLISECOND
DRIP_I_MAX_DOUBLINGS = 10
DRIP_K = 1

_ = SECOND  # re-exported unit kept for callers configuring intervals
