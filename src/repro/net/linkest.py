"""ETX link estimation from beacon reception and data-ack feedback.

Modelled on CTP's 4-bit link estimator: beacon sequence numbers give an
ingress reception ratio per window, unicast send outcomes give a direct ETX
sample, and the two blend with exponentially weighted moving averages (data
samples dominate once present, as in the TinyOS implementation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: ETX reported for a neighbour we know nothing about yet.
UNKNOWN_ETX = 16.0


@dataclass
class _NeighborEstimate:
    last_beacon_seqno: Optional[int] = None
    beacons_received: int = 0
    beacons_expected: int = 0
    beacon_quality: float = 0.0  # EWMA of windowed reception ratio
    beacon_windows: int = 0
    data_etx: Optional[float] = None  # EWMA of 1/success from unicast sends
    data_attempts: int = 0
    data_successes: int = 0
    last_rssi: float = -100.0


def _etx_of(est: _NeighborEstimate) -> float:
    """Best current ETX estimate one neighbour's state supports."""
    if est.data_etx is not None:
        return est.data_etx
    if est.beacon_windows > 0 and est.beacon_quality > 0:
        # Beacon PRR measures ingress; assume near-symmetry (the paper's
        # links are static with symmetric gains).
        return min(1.0 / (est.beacon_quality**2), UNKNOWN_ETX)
    if est.beacons_received > 0:
        return 2.0  # heard something recently; optimistic bootstrap
    return UNKNOWN_ETX


class LinkEstimator:
    """Per-node link-quality table."""

    #: Beacons per quality-update window.
    WINDOW = 5
    #: EWMA weight given to history (alpha) for beacon quality.
    ALPHA_BEACON = 0.6
    #: EWMA weight given to history for data ETX.
    ALPHA_DATA = 0.7
    #: Data samples per data-ETX update.
    DATA_WINDOW = 3
    #: Links worse than this ETX are treated as unusable.
    MAX_ETX = 10.0

    def __init__(self) -> None:
        self._table: Dict[int, _NeighborEstimate] = {}
        #: :meth:`link_etx` per neighbour with an estimate. Every method that
        #: mutates an estimate refreshes its entry, so route selection reads
        #: link costs as plain dict lookups; absent means ``UNKNOWN_ETX``.
        self.etx: Dict[int, float] = {}

    # --------------------------------------------------------------- updates
    def beacon_received(self, neighbor: int, seqno: int, rssi: float) -> None:
        """Account an incoming beacon (gaps in seqno imply missed beacons)."""
        est = self._table.setdefault(neighbor, _NeighborEstimate())
        est.last_rssi = rssi
        if est.last_beacon_seqno is None:
            est.beacons_expected += 1
        else:
            gap = seqno - est.last_beacon_seqno
            if gap <= 0:
                gap = 1  # reboot or wrap: count conservatively
            est.beacons_expected += gap
        est.last_beacon_seqno = seqno
        est.beacons_received += 1
        if est.beacons_received % self.WINDOW == 0:
            ratio = min(est.beacons_received / max(est.beacons_expected, 1), 1.0)
            if est.beacon_windows == 0:
                est.beacon_quality = ratio
            else:
                est.beacon_quality = (
                    self.ALPHA_BEACON * est.beacon_quality
                    + (1 - self.ALPHA_BEACON) * ratio
                )
            est.beacon_windows += 1
            est.beacons_received = 0
            est.beacons_expected = 0
        self.etx[neighbor] = _etx_of(est)

    def data_sent(self, neighbor: int, success: bool) -> None:
        """Account the outcome of one unicast send (one LPL train) to ``neighbor``."""
        est = self._table.setdefault(neighbor, _NeighborEstimate())
        est.data_attempts += 1
        if success:
            est.data_successes += 1
        if est.data_attempts >= self.DATA_WINDOW:
            if est.data_successes == 0:
                sample = self.MAX_ETX * 2
            else:
                sample = est.data_attempts / est.data_successes
            if est.data_etx is None:
                est.data_etx = sample
            else:
                est.data_etx = (
                    self.ALPHA_DATA * est.data_etx + (1 - self.ALPHA_DATA) * sample
                )
            est.data_attempts = 0
            est.data_successes = 0
        self.etx[neighbor] = _etx_of(est)

    # --------------------------------------------------------------- queries
    def link_etx(self, neighbor: int) -> float:
        """Best current ETX estimate for the link to ``neighbor``."""
        return self.etx.get(neighbor, UNKNOWN_ETX)

    def is_usable(self, neighbor: int) -> bool:
        """True when the link's ETX is below the usable ceiling."""
        return self.link_etx(neighbor) <= self.MAX_ETX

    def neighbors(self) -> List[int]:
        """All neighbours with any recorded state."""
        return list(self._table)

    def rssi(self, neighbor: int) -> float:
        """Last beacon RSSI heard from the neighbour (dBm)."""
        est = self._table.get(neighbor)
        return est.last_rssi if est is not None else -100.0

    def forget(self, neighbor: int) -> None:
        """Drop all state for a neighbour (eviction / long silence)."""
        self._table.pop(neighbor, None)
        self.etx.pop(neighbor, None)

    def reset(self) -> None:
        """Drop every estimate (node reboot). Clears in place: routing and
        forwarding keep references to this estimator."""
        self._table.clear()
        self.etx.clear()
