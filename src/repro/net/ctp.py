"""Collection Tree Protocol: routing engine and forwarding engine.

Faithful-in-behaviour reimplementation of CTP Noe (Gnawali et al.,
SenSys'09): Trickle-timed beacons advertise ``(parent, path ETX, hop
count)``; nodes pick the parent minimising path ETX with hysteresis and
loop avoidance; the forwarding engine sends data up the tree with
retransmissions and duplicate suppression. TeleAdjusting piggybacks its
position-confirmation fields on these beacons (paper §III-B5).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.mac.lpl import SendResult
from repro.net.linkest import UNKNOWN_ETX
from repro.net.messages import NO_ROUTE, DataPacket, RoutingBeacon
from repro.net.trickle import (
    CTP_BEACON_I_MAX_DOUBLINGS,
    CTP_BEACON_I_MIN,
    CTP_BEACON_K,
    TrickleTimer,
)
from repro.radio.frame import BROADCAST, Frame, FrameType
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import NodeStack


@dataclass
class RouteEntry:
    """What we know about a neighbour's route from its last beacon."""

    path_etx: float
    hop_count: int
    parent: Optional[int]
    heard_at: int


class CtpRouting:
    """Parent selection and beaconing for one node."""

    #: Only switch parents when the new path beats the old by this much ETX
    #: (CTP uses 1.5 ETX — half a transmission each way — to damp churn).
    PARENT_SWITCH_HYSTERESIS = 1.5
    #: Entries older than this (ticks) are ignored during selection.
    ENTRY_TTL = 600_000_000  # 600 s
    #: A parent silent for this long is declared dead even without data
    #: traffic to probe it (beacons at max Trickle arrive every ~4 min).
    PARENT_STALE_TTL = 300_000_000  # 300 s
    #: How often the staleness check runs.
    STALENESS_CHECK_INTERVAL = 30_000_000  # 30 s

    def __init__(
        self,
        sim: Simulator,
        stack: "NodeStack",
        is_root: bool = False,
        beacon_i_min: int = CTP_BEACON_I_MIN,
        beacon_i_max_doublings: int = CTP_BEACON_I_MAX_DOUBLINGS,
    ) -> None:
        self.sim = sim
        self.stack = stack
        self.node_id = stack.node_id
        self.is_root = is_root
        self.linkest = stack.linkest
        self.table: Dict[int, RouteEntry] = {}
        self.children: Dict[int, int] = {}  # child -> last heard tick
        self.parent: Optional[int] = None
        self.path_etx: float = 0.0 if is_root else float(NO_ROUTE)
        self.hop_count: int = 0 if is_root else NO_ROUTE
        self.beacon_seqno = 0
        self.beacons_sent = 0
        self.trickle = TrickleTimer(
            sim,
            self._send_beacon,
            i_min=beacon_i_min,
            i_max_doublings=beacon_i_max_doublings,
            k=CTP_BEACON_K,
            rng_name=f"ctp-beacon-{self.node_id}",
        )
        #: Fired once, when a non-root node first acquires a parent (the
        #: paper's "routing found event" that arms TeleAdjusting).
        self.on_parent_found: List[Callable[[], None]] = []
        #: Fired on every parent change with (old_parent, new_parent).
        self.on_parent_change: List[Callable[[Optional[int], Optional[int]], None]] = []
        self._had_parent = False

    # ----------------------------------------------------------------- start
    def start(self) -> None:
        """Start this component (idempotent)."""
        self.trickle.start()
        if not self.is_root:
            self.sim.schedule(self.STALENESS_CHECK_INTERVAL, self._staleness_check)

    def _staleness_check(self) -> None:
        self.sim.schedule(self.STALENESS_CHECK_INTERVAL, self._staleness_check)
        if self.parent is None:
            return
        entry = self.table.get(self.parent)
        if entry is None or self.sim.now - entry.heard_at > self.PARENT_STALE_TTL:
            self.parent_unreachable()

    @property
    def has_route(self) -> bool:
        """True when this node has a usable route to the sink."""
        return self.is_root or self.parent is not None

    # --------------------------------------------------------------- beacons
    def _send_beacon(self) -> None:
        self.beacon_seqno += 1
        self.beacons_sent += 1
        beacon = RoutingBeacon(
            origin=self.node_id,
            parent=self.parent,
            path_etx=self.path_etx,
            hop_count=self.hop_count,
            seqno=self.beacon_seqno,
        )
        self.stack.fill_beacon(beacon)
        self.stack.send_broadcast(
            FrameType.ROUTING_BEACON, beacon, length=RoutingBeacon.LENGTH
        )

    def beacon_received(self, beacon: RoutingBeacon, rssi: float) -> None:
        """Process one incoming routing beacon."""
        origin = beacon.origin
        self.linkest.beacon_received(origin, beacon.seqno, rssi)
        self.table[origin] = RouteEntry(
            path_etx=beacon.path_etx,
            hop_count=beacon.hop_count,
            parent=beacon.parent,
            heard_at=self.sim.now,
        )
        if beacon.parent == self.node_id:
            self.children[origin] = self.sim.now
        else:
            self.children.pop(origin, None)
        # Route pull: a routeless neighbour while we have a route is an
        # inconsistency — beacon soon so it can join.
        if beacon.path_etx >= NO_ROUTE and self.has_route:
            self.trickle.hear_inconsistent()
        self._evaluate_route()
        self.stack.beacon_observed(beacon, rssi)

    # ------------------------------------------------------------- selection
    def _evaluate_route(self) -> None:
        if self.is_root:
            return
        # One scan of the table. A neighbour is a candidate when it has a
        # route heard within ENTRY_TTL, does not route through us (loop
        # avoidance) and its cached link ETX is usable. Table order and
        # strict < keep ties on the first candidate; the parent's own cost
        # falls out of the same pass.
        parent = self.parent
        now = self.sim.now
        ttl = self.ENTRY_TTL
        node_id = self.node_id
        children = self.children
        link_etx = self.linkest.etx.get
        max_etx = self.linkest.MAX_ETX
        best: Optional[int] = None
        best_cost = float("inf")
        current_cost: Optional[float] = None
        for neighbor, entry in self.table.items():
            path_etx = entry.path_etx
            if path_etx >= NO_ROUTE or now - entry.heard_at > ttl:
                continue
            if entry.parent == node_id or neighbor in children:
                continue  # loop avoidance
            etx = link_etx(neighbor, UNKNOWN_ETX)
            if etx <= max_etx:
                cost = path_etx + etx
                if neighbor == parent:
                    current_cost = cost
                if cost < best_cost:
                    best, best_cost = neighbor, cost
        if best is None:
            return
        switch = False
        if parent is None or current_cost is None:
            switch = True
        elif best != parent and best_cost < current_cost - self.PARENT_SWITCH_HYSTERESIS:
            switch = True
        if switch and best != parent:
            self.parent = best
            self.trickle.reset()
            for callback in self.on_parent_change:
                callback(parent, best)
            if not self._had_parent:
                self._had_parent = True
                for callback in self.on_parent_found:
                    callback()
        self._update_own_metric()

    def _update_own_metric(self) -> None:
        if self.is_root or self.parent is None:
            return
        entry = self.table.get(self.parent)
        if entry is None:
            return
        self.path_etx = entry.path_etx + self.linkest.link_etx(self.parent)
        self.hop_count = (entry.hop_count + 1) if entry.hop_count < NO_ROUTE else NO_ROUTE

    def reset(self) -> None:
        """Cold-restart the routing engine (node reboot).

        All learned state is dropped; ``on_parent_change(old, None)`` fires
        so dependants (TeleAdjusting's allocation) invalidate what they
        derived from the route, and ``on_parent_found`` will fire again on
        the next acquisition. Trickle snaps back to its fastest interval,
        as a freshly booted CTP node's would.
        """
        old = self.parent
        self.table.clear()
        self.children.clear()
        self.parent = None
        self.path_etx = 0.0 if self.is_root else float(NO_ROUTE)
        self.hop_count = 0 if self.is_root else NO_ROUTE
        self._had_parent = False
        if old is not None:
            for callback in self.on_parent_change:
                callback(old, None)
        self.trickle.reset()

    def parent_unreachable(self) -> None:
        """Forwarding engine signal: repeated send failures to the parent."""
        if self.parent is not None:
            entry = self.table.get(self.parent)
            if entry is not None:
                entry.path_etx = float(NO_ROUTE)
            old = self.parent
            self.parent = None
            self.path_etx = float(NO_ROUTE)
            self.trickle.reset()
            for callback in self.on_parent_change:
                callback(old, None)
            self._evaluate_route()


class CtpForwarding:
    """Upward data forwarding with retransmissions and duplicate filtering."""

    MAX_SEND_TRIES = 4  # LPL trains per hop before declaring the parent dead
    QUEUE_LIMIT = 12
    DEDUP_CACHE = 128
    MAX_THL = 32

    def __init__(self, sim: Simulator, stack: "NodeStack") -> None:
        self.sim = sim
        self.stack = stack
        self.node_id = stack.node_id
        self.routing = stack.routing
        self.linkest = stack.linkest
        self._queue: List[DataPacket] = []
        self._sending = False
        self._tries = 0
        self._seen: "OrderedDict[Tuple[int, int, int], int]" = OrderedDict()
        self._seqno = 0
        #: Sink-side delivery callback(packet); set on the root's stack.
        self.on_deliver: Optional[Callable[[DataPacket], None]] = None
        #: Sink-side per-collect-id handlers (multiplexing, like CTP's
        #: collection ids); consulted in addition to :attr:`on_deliver`.
        self.collect_handlers: Dict[int, Callable[[DataPacket], None]] = {}
        #: Hooks run on every packet this node *originates* (e.g.
        #: TeleAdjusting stamps the node's path code onto it).
        self.origin_decorators: List[Callable[[DataPacket], None]] = []
        #: Sink-side observers run on every delivered packet, regardless of
        #: collect id (in addition to handlers and on_deliver).
        self.deliver_observers: List[Callable[[DataPacket], None]] = []
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0

    def reset(self) -> None:
        """Drop queued packets and dedup state (node reboot)."""
        self._queue.clear()
        self._sending = False
        self._tries = 0
        self._seen.clear()

    # ------------------------------------------------------------------- API
    def send(self, collect_id: int, payload: object, origin_seqno: Optional[int] = None) -> DataPacket:
        """Originate a data packet toward the sink."""
        if origin_seqno is None:
            self._seqno += 1
            origin_seqno = self._seqno
        packet = DataPacket(
            origin=self.node_id,
            origin_seqno=origin_seqno,
            collect_id=collect_id,
            payload=payload,
        )
        for decorator in self.origin_decorators:
            decorator(packet)
        self._enqueue(packet)
        return packet

    # -------------------------------------------------------------- plumbing
    def _remember(self, key: Tuple[int, int, int]) -> None:
        self._seen[key] = self.sim.now
        while len(self._seen) > self.DEDUP_CACHE:
            self._seen.popitem(last=False)

    def _enqueue(self, packet: DataPacket) -> None:
        if len(self._queue) >= self.QUEUE_LIMIT:
            self.packets_dropped += 1
            return
        self._queue.append(packet)
        self._pump()

    def _pump(self) -> None:
        if self._sending or not self._queue:
            return
        if self.routing.is_root:
            packet = self._queue.pop(0)
            self._deliver(packet)
            self._pump()
            return
        if self.routing.parent is None:
            # No route yet; retry once beacons have built one.
            self.sim.schedule(1_000_000, self._pump)
            return
        self._sending = True
        self._tries = 0
        self._transmit(self._queue[0])

    def _transmit(self, packet: DataPacket) -> None:
        parent = self.routing.parent
        if parent is None:
            self._sending = False
            self.sim.schedule(1_000_000, self._pump)
            return
        frame = Frame(
            src=self.node_id,
            dst=parent,
            type=FrameType.DATA,
            payload=packet,
            length=DataPacket.LENGTH,
        )
        self.stack.mac.send(frame, lambda result: self._sent(packet, parent, result))

    def _sent(self, packet: DataPacket, parent: int, result: SendResult) -> None:
        self.linkest.data_sent(parent, result.ok)
        if result.ok:
            self.packets_sent += 1
            if self._queue and self._queue[0] is packet:
                self._queue.pop(0)
            self._sending = False
            self._pump()
            return
        self._tries += 1
        if self._tries >= self.MAX_SEND_TRIES:
            self.routing.parent_unreachable()
            self._tries = 0
        self._sending = False
        self.sim.schedule(50_000, self._pump)

    # --------------------------------------------------------------- receive
    def data_received(self, frame: Frame) -> None:
        """Process one incoming data frame (forward or deliver)."""
        packet: DataPacket = frame.payload
        key = packet.key()
        if key in self._seen:
            return
        self._remember(key)
        if self.routing.is_root:
            self._deliver(packet)
            return
        if packet.thl >= self.MAX_THL:
            self.packets_dropped += 1
            return
        forwarded = DataPacket(
            origin=packet.origin,
            origin_seqno=packet.origin_seqno,
            collect_id=packet.collect_id,
            thl=packet.thl + 1,
            payload=packet.payload,
            tele_code=packet.tele_code,
        )
        self._enqueue(forwarded)

    def _deliver(self, packet: DataPacket) -> None:
        self.packets_delivered += 1
        for observer in self.deliver_observers:
            observer(packet)
        handler = self.collect_handlers.get(packet.collect_id)
        if handler is not None:
            handler(packet)
        if self.on_deliver is not None:
            self.on_deliver(packet)
