"""Per-node protocol stack: radio + MAC + CTP + pluggable control protocol."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.mac.lpl import AnycastDecision, MacParams, SendResult
from repro.net.ctp import CtpForwarding, CtpRouting
from repro.net.linkest import LinkEstimator
from repro.net.messages import RoutingBeacon
from repro.net.trickle import CTP_BEACON_I_MAX_DOUBLINGS, CTP_BEACON_I_MIN
from repro.radio.channel import Channel
from repro.radio.frame import BROADCAST, Frame, FrameType
from repro.radio.profiles import RadioProfile
from repro.radio.radio import Radio
from repro.sim.simulator import Simulator


class NodeStack:
    """Everything one mote runs: radio, MAC adapter, CTP, and one control protocol.

    The MAC comes from the radio profile (:meth:`RadioProfile.build_mac`) —
    LPL on the default CC2420 profile, p-CSMA on the LoRa profile, whatever a
    registered plugin supplies otherwise. Control protocols (TeleAdjusting,
    Drip, RPL downward) plug in by registering frame handlers with
    :meth:`register_handler`, beacon hooks with :attr:`beacon_fillers` /
    :attr:`beacon_observers`, and — for TeleAdjusting — the MAC anycast
    decision via :meth:`set_anycast_handler`.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        node_id: int,
        is_root: bool = False,
        tx_power_dbm: float = 0.0,
        mac_params: Optional[MacParams] = None,
        always_on: Optional[bool] = None,
        beacon_i_min: Optional[int] = None,
        beacon_i_max_doublings: Optional[int] = None,
        profile: Optional[RadioProfile] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.is_root = is_root
        # The profile defaults to the channel's (they were wired together by
        # the harness); explicit beacon bounds win over profile suggestions,
        # which win over the stack-wide CTP defaults.
        if profile is None:
            profile = channel.profile
        self.profile = profile
        if beacon_i_min is None:
            beacon_i_min = (
                CTP_BEACON_I_MIN if profile.beacon_i_min is None else profile.beacon_i_min
            )
        if beacon_i_max_doublings is None:
            beacon_i_max_doublings = (
                CTP_BEACON_I_MAX_DOUBLINGS
                if profile.beacon_i_max_doublings is None
                else profile.beacon_i_max_doublings
            )
        self.radio = Radio(sim, channel, node_id, tx_power_dbm=tx_power_dbm)
        self.mac = profile.build_mac(
            sim,
            self.radio,
            params=mac_params,
            always_on=is_root if always_on is None else always_on,
        )
        self.linkest = LinkEstimator()
        self.routing = CtpRouting(
            sim,
            self,
            is_root=is_root,
            beacon_i_min=beacon_i_min,
            beacon_i_max_doublings=beacon_i_max_doublings,
        )
        self.forwarding = CtpForwarding(sim, self)
        self._handlers: Dict[FrameType, Callable[[Frame, float], None]] = {}
        #: Hooks that may add fields to outgoing routing beacons.
        self.beacon_fillers: List[Callable[[RoutingBeacon], None]] = []
        #: Hooks run on every received routing beacon (after CTP processing).
        self.beacon_observers: List[Callable[[RoutingBeacon, float], None]] = []
        self._anycast_handler: Optional[Callable[[Frame, float], AnycastDecision]] = None
        #: Logical transmissions (LPL trains) per frame type, for metrics.
        self.tx_by_type: Dict[FrameType, int] = {}
        self.mac.receive_handler = self._dispatch
        self.mac.anycast_handler = self._anycast_dispatch
        self._started = False

    # ----------------------------------------------------------------- wiring
    def register_handler(
        self, frame_type: FrameType, handler: Callable[[Frame, float], None]
    ) -> None:
        """Route received frames of ``frame_type`` to ``handler``."""
        if frame_type in (FrameType.ROUTING_BEACON, FrameType.DATA):
            raise ValueError(f"{frame_type} is owned by the CTP substrate")
        if frame_type in self._handlers:
            raise ValueError(f"duplicate handler for {frame_type}")
        self._handlers[frame_type] = handler

    def set_anycast_handler(
        self, handler: Callable[[Frame, float], AnycastDecision]
    ) -> None:
        """Install the MAC anycast decision callback."""
        self._anycast_handler = handler

    def fill_beacon(self, beacon: RoutingBeacon) -> None:
        """Run registered fillers over an outgoing beacon."""
        for filler in self.beacon_fillers:
            filler(beacon)

    def beacon_observed(self, beacon: RoutingBeacon, rssi: float) -> None:
        """Run registered observers over a received beacon."""
        for observer in self.beacon_observers:
            observer(beacon, rssi)

    # ------------------------------------------------------------------ start
    def start(self) -> None:
        """Start this component (idempotent)."""
        if self._started:
            return
        self._started = True
        self.mac.start()
        self.routing.start()

    # ------------------------------------------------------------------ reboot
    def reboot(self) -> None:
        """Cold-restart the stack after a crash (fault injection).

        The radio recovers from its failure; MAC queues, link estimates,
        CTP forwarding state, and routing state are wiped — the node
        rejoins the tree from scratch. Control-protocol state is wiped
        separately (e.g. ``TeleAdjusting.reset_state``); handlers stay
        registered, the same objects serve the rebooted node.
        """
        self.mac.reset()
        self.linkest.reset()
        self.forwarding.reset()
        self.routing.reset()
        self.radio.recover()
        self.mac.resume()

    # ------------------------------------------------------------------- send
    def _count(self, frame_type: FrameType) -> None:
        self.tx_by_type[frame_type] = self.tx_by_type.get(frame_type, 0) + 1

    def send_broadcast(
        self,
        frame_type: FrameType,
        payload: object,
        length: int,
        done: Optional[Callable[[SendResult], None]] = None,
    ) -> Frame:
        """Broadcast a frame (one LPL train)."""
        frame = Frame(
            src=self.node_id, dst=BROADCAST, type=frame_type, payload=payload, length=length
        )
        self._count(frame_type)
        self.mac.send(frame, done)
        return frame

    def send_unicast(
        self,
        dst: int,
        frame_type: FrameType,
        payload: object,
        length: int,
        done: Optional[Callable[[SendResult], None]] = None,
    ) -> Frame:
        """Unicast a frame (acked LPL train)."""
        frame = Frame(
            src=self.node_id, dst=dst, type=frame_type, payload=payload, length=length
        )
        self._count(frame_type)
        self.mac.send(frame, done)
        return frame

    def send_anycast(
        self,
        frame_type: FrameType,
        payload: object,
        length: int,
        done: Optional[Callable[[SendResult], None]] = None,
    ) -> Frame:
        """Anycast a frame (first eligible acker wins)."""
        frame = Frame(
            src=self.node_id, dst=BROADCAST, type=frame_type, payload=payload, length=length
        )
        self._count(frame_type)
        self.mac.send_anycast(frame, done)
        return frame

    # ---------------------------------------------------------------- receive
    def _dispatch(self, frame: Frame, rssi: float) -> None:
        if frame.type is FrameType.ROUTING_BEACON:
            self.routing.beacon_received(frame.payload, rssi)
            return
        if frame.type is FrameType.DATA:
            if frame.dst == self.node_id or frame.is_broadcast:
                self.forwarding.data_received(frame)
            return
        handler = self._handlers.get(frame.type)
        if handler is not None:
            handler(frame, rssi)

    def _anycast_dispatch(self, frame: Frame, rssi: float) -> AnycastDecision:
        if self._anycast_handler is None:
            return AnycastDecision.reject()
        return self._anycast_handler(frame, rssi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeStack(node={self.node_id}, root={self.is_root})"
