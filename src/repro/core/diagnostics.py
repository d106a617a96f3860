"""Controller-side diagnostics: spotting the node that needs adjusting.

The paper's workflow (Figure 1, §II): the manager "monitor[s] the abnormal
situation by real-time data analysis" at the controller and, "once detecting
an anomaly, … utilizes network diagnostic methods to confirm the root cause"
before sending the control packet. This module provides the minimal
diagnostic substrate that workflow needs:

- :class:`TrafficMonitor` — per-origin delivery-rate tracking over sliding
  windows, with rate-anomaly detection (storms and silences).
- :class:`AdjustmentPlanner` — turns anomalies into remote-control payloads
  and tracks their outcomes.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.simulator import Simulator
from repro.sim.units import MINUTE, SECOND, to_seconds


@dataclass
class Anomaly:
    """One detected misbehaviour."""

    node: int
    kind: str  # "storm" | "silence"
    observed_rate: float  # packets per second over the window
    expected_rate: float
    detected_at: int

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"node {self.node}: {self.kind} "
            f"({self.observed_rate * 60:.1f}/min vs expected "
            f"{self.expected_rate * 60:.1f}/min)"
        )


class TrafficMonitor:
    """Sliding-window per-origin rate tracking at the sink.

    Feed it the origin of every delivered collection packet through
    :meth:`record` (from the sink's ``CtpForwarding.on_deliver`` or a
    collect handler); query
    :meth:`anomalies` to get storms (rate ≫ expected) and silences (no
    packets for several expected intervals).
    """

    def __init__(
        self,
        sim: Simulator,
        expected_ipi: int = 10 * MINUTE,
        window: Optional[int] = None,
        storm_factor: float = 4.0,
        silence_factor: float = 3.0,
    ) -> None:
        if expected_ipi <= 0:
            raise ValueError("expected IPI must be positive")
        self.sim = sim
        self.expected_ipi = expected_ipi
        self.window = window if window is not None else 3 * expected_ipi
        self.storm_factor = storm_factor
        self.silence_factor = silence_factor
        self._arrivals: Dict[int, Deque[int]] = defaultdict(deque)
        self._first_seen: Dict[int, int] = {}

    # ------------------------------------------------------------------ feed
    def record(self, origin: int) -> None:
        """Record one arrival from ``origin`` at the current time."""
        now = self.sim.now
        arrivals = self._arrivals[origin]
        arrivals.append(now)
        self._first_seen.setdefault(origin, now)
        floor = now - self.window
        while arrivals and arrivals[0] < floor:
            arrivals.popleft()

    # --------------------------------------------------------------- queries
    def rate(self, origin: int) -> float:
        """Packets per second from ``origin`` over the sliding window."""
        arrivals = self._arrivals.get(origin)
        if not arrivals:
            return 0.0
        # Floor the observation span at one second so rates stay meaningful
        # when history is replayed into the monitor in a single instant.
        span = max(min(self.window, self.sim.now - self._first_seen[origin]), SECOND)
        recent = [t for t in arrivals if t >= self.sim.now - self.window]
        return len(recent) / to_seconds(span)

    @property
    def expected_rate(self) -> float:
        """Expected packets per second given the configured IPI."""
        return 1.0 / to_seconds(self.expected_ipi)

    def known_origins(self) -> List[int]:
        """Origins seen so far, sorted."""
        return sorted(self._first_seen)

    def anomalies(self) -> List[Anomaly]:
        """Current storms and silences, worst first."""
        out: List[Anomaly] = []
        now = self.sim.now
        for origin in self.known_origins():
            rate = self.rate(origin)
            if rate > self.expected_rate * self.storm_factor:
                out.append(
                    Anomaly(
                        node=origin,
                        kind="storm",
                        observed_rate=rate,
                        expected_rate=self.expected_rate,
                        detected_at=now,
                    )
                )
                continue
            arrivals = self._arrivals.get(origin)
            last = arrivals[-1] if arrivals else self._first_seen[origin]
            if now - last > self.silence_factor * self.expected_ipi:
                out.append(
                    Anomaly(
                        node=origin,
                        kind="silence",
                        observed_rate=rate,
                        expected_rate=self.expected_rate,
                        detected_at=now,
                    )
                )
        out.sort(key=lambda a: abs(a.observed_rate - a.expected_rate), reverse=True)
        return out


@dataclass
class Adjustment:
    """A remote-control action planned in response to an anomaly."""

    anomaly: Anomaly
    payload: Dict[str, object]
    issued_at: Optional[int] = None
    delivered: Optional[bool] = None


class AdjustmentPlanner:
    """Maps anomalies to control payloads and dispatches them.

    ``send`` is any callable matching the harness's
    ``send_control(destination, payload)`` signature (TeleAdjusting, Drip,
    and RPL front-ends all qualify).
    """

    def __init__(
        self,
        sim: Simulator,
        send: Callable[[int, object], object],
        default_ipi: int = 10 * MINUTE,
    ) -> None:
        self.sim = sim
        self.send = send
        self.default_ipi = default_ipi
        self.history: List[Adjustment] = []

    def plan(self, anomaly: Anomaly) -> Adjustment:
        """The corrective payload for one anomaly (storm → reset IPI;
        silence → request a status report / re-enable sensing)."""
        if anomaly.kind == "storm":
            payload = {"set_ipi_s": to_seconds(self.default_ipi)}
        else:
            payload = {"request_status": True}
        return Adjustment(anomaly=anomaly, payload=payload)

    def dispatch(self, anomalies: List[Anomaly]) -> List[Adjustment]:
        """Plan and send a control packet per anomaly; returns the batch."""
        batch: List[Adjustment] = []
        for anomaly in anomalies:
            adjustment = self.plan(anomaly)
            adjustment.issued_at = self.sim.now
            self.send(anomaly.node, adjustment.payload)
            self.history.append(adjustment)
            batch.append(adjustment)
        return batch
