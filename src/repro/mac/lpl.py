"""Low-power-listening MAC with unicast, broadcast, and anycast trains."""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional, Tuple

from repro.mac.base import MacAdapter
from repro.radio.frame import BROADCAST, Frame, FrameType
from repro.radio.radio import IDLE, OFF, RECEIVING, TX, Radio
from repro.sim.simulator import Simulator
from repro.sim.units import MILLISECOND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.radio.profiles import RadioProfile

#: Frame types tested on every decoded frame, as module globals (an Enum
#: member read through its class costs several times a global read).
_ACK = FrameType.ACK
_WIFI = FrameType.WIFI


@dataclass
class MacParams:
    """LPL timing knobs (defaults match the paper's setup where stated)."""

    #: Sleep interval between channel samples; 512 ms in the paper.
    wake_interval: int = 512 * MILLISECOND
    #: How long the radio listens on each wake-up before going back to sleep.
    listen_window: int = 6 * MILLISECOND
    #: Extension after detecting energy or receiving a frame.
    active_timeout: int = 30 * MILLISECOND
    #: Gap after each unicast/anycast copy during which the sender listens
    #: for acknowledgements. It must hold the full anycast slot schedule
    #: (max slot × anycast_slot + ack airtime ≈ 1.8 ms + 0.7 ms), yet stay
    #: short: the duty-cycled receiver's CCA sampling has to land on a copy,
    #: so the train must be mostly airtime, not silence.
    ack_gap: int = 2_600
    #: Width of one anycast acknowledgement priority slot. All slots (0–6)
    #: must fit inside ``ack_gap`` together with one ack airtime, otherwise
    #: low-priority ackers collide with the sender's next copy.
    anycast_slot: int = 300
    #: Gap between broadcast copies (also bounds how many copies a train puts
    #: on the air; receivers deduplicate, so the gap trades simulation cost
    #: against per-wake-up catch probability and must stay below
    #: ``listen_window`` minus one airtime).
    broadcast_gap: int = 3 * MILLISECOND
    #: Extra train length beyond one wake interval (catches phase edges).
    train_slack: int = 20 * MILLISECOND
    #: CSMA: max initial-backoff attempts before reporting channel busy.
    csma_attempts: int = 8
    #: CSMA: initial backoff window (uniform in [1, window]).
    csma_backoff: int = 10 * MILLISECOND
    #: Remember this many recently seen frame ids for duplicate suppression.
    dedup_cache: int = 64
    #: Cap on copies per broadcast train. None = fill the wake interval (LPL
    #: default). Set small (e.g. 2) for always-on networks, where one copy
    #: reaches every listening neighbour and the full train is wasted work.
    broadcast_copies_cap: Optional[int] = None
    #: After a successful anycast train, broadcast one HANDOVER copy naming
    #: the winner, so hidden co-winners (ackers that could not hear each
    #: other) demote themselves instead of forwarding duplicates.
    handover_announce: bool = True

    @classmethod
    def always_on_network(cls) -> "MacParams":
        """Preset for simulations where every radio stays on (no LPL)."""
        return cls(broadcast_copies_cap=2, train_slack=50 * MILLISECOND)


@dataclass
class SendResult:
    """Outcome of one MAC send (one full LPL train)."""

    ok: bool
    frame: Frame
    #: Node that acknowledged (unicast: the destination; anycast: the winner).
    acker: Optional[int] = None
    #: Number of frame copies put on the air during the train.
    copies: int = 0
    started: int = 0
    finished: int = 0
    #: Failure reason for diagnostics ("timeout", "busy").
    reason: str = ""


@dataclass
class AnycastDecision:
    """Upper-layer verdict on an overheard anycast frame.

    ``slot`` orders competing ackers: slot 0 acks first. TeleAdjusting maps
    more routing progress to earlier slots so the best forwarder wins.
    """

    accept: bool
    slot: int = 0

    @classmethod
    def reject(cls) -> "AnycastDecision":
        """Convenience constructor for a non-accepting verdict."""
        return cls(accept=False)


@dataclass
class _TrainState:
    frame: Frame
    done: Optional[Callable[[SendResult], None]]
    deadline: int
    started: int
    anycast: bool
    copies: int = 0
    finished: bool = False
    csma_tries: int = 0


class LPLMac(MacAdapter):
    """Per-node MAC instance bound to one :class:`Radio`.

    Upper layers register:

    - ``receive_handler(frame, rssi)`` — every non-duplicate frame addressed
      to this node (or broadcast/anycast) after MAC filtering.
    - ``anycast_handler(frame, rssi) -> AnycastDecision`` — consulted for
      frames sent with :meth:`send_anycast`; an accepting node acknowledges
      in its priority slot and then receives the frame.

    Ack airtime and the RX→TX turnaround come from the node's
    :class:`~repro.radio.profiles.RadioProfile` (the default profile keeps
    the historical CC2420 values, 544 and 192 ticks).
    """

    ACK_LENGTH = 11

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        params: Optional[MacParams] = None,
        always_on: bool = False,
        profile: Optional["RadioProfile"] = None,
    ) -> None:
        if profile is None:
            from repro.radio.profiles import get_radio_profile

            profile = get_radio_profile(None)
        self.profile = profile
        #: On-air time of one acknowledgement frame on this profile's PHY.
        self.ack_airtime = profile.packet_airtime(self.ACK_LENGTH)
        self.turnaround = profile.turnaround_ticks
        self.sim = sim
        self.radio = radio
        self.params = params or MacParams()
        self.always_on = always_on
        self.node_id = radio.node_id
        self.receive_handler: Optional[Callable[[Frame, float], None]] = None
        self.anycast_handler: Optional[
            Callable[[Frame, float], AnycastDecision]
        ] = None
        #: Promiscuous observer: called once per decoded frame (before any
        #: addressing/duplicate filtering, acks excluded). TeleAdjusting's
        #: feedback overhearing (paper Fig 5(a)) hangs off this.
        self.snoop_handler: Optional[Callable[[Frame, float], None]] = None
        self._queue: Deque[Tuple[Frame, Optional[Callable[[SendResult], None]], bool]] = deque()
        self._train: Optional[_TrainState] = None
        self._rng = sim.rng(f"mac-{self.node_id}")
        # Duplicate suppression: frame_id -> did we ack it (for re-acking).
        self._seen: "OrderedDict[int, bool]" = OrderedDict()
        # Frames already handed to the upper layer (anycast can ack a copy
        # without having delivered yet if the radio was busy at slot time).
        self._delivered_ids: "OrderedDict[int, bool]" = OrderedDict()
        self._sleep_event = None
        self._awake_until = 0
        self._pending_ack_event = None
        #: Stats the metrics layer reads.
        self.trains_sent = 0
        self.copies_sent = 0
        self.acks_sent = 0
        self.frames_delivered = 0
        self._started = False

    # --------------------------------------------------------------- startup
    def start(self) -> None:
        """Begin duty cycling (or stay always-on for sink/controller nodes)."""
        if self._started:
            return
        self._started = True
        self.radio.on_receive = self._on_frame
        if self.always_on:
            self.radio.turn_on()
        else:
            phase = self._rng.randrange(self.params.wake_interval)
            self.sim.schedule(phase, self._wake_up)

    def reset(self) -> None:
        """Reboot: cancel every pending send and forget dedup state.

        Completion callbacks of cancelled sends fire with
        ``reason="cancelled"`` (the layers above are wiped right after by
        :meth:`repro.net.node.NodeStack.reboot`, so their reactions are
        discarded). The duty-cycle wake-up loop keeps running — it is the
        node's hardware timer, not protocol state.
        """
        self.cancel_matching(lambda frame: True)
        self._queue.clear()
        self._seen.clear()
        self._delivered_ids.clear()
        self._awake_until = 0

    def resume(self) -> None:
        """Power the radio back up after a failure was cleared.

        Duty-cycled nodes need nothing: their wake-up loop turns the radio
        on at the next scheduled sample (the phase drift relative to what
        neighbours learned is the "duty-cycle desync" a stun causes).
        """
        if self.always_on and self._started:
            self.radio.turn_on()

    # ------------------------------------------------------------ duty cycle
    def _wake_up(self) -> None:
        params = self.params
        sim = self.sim
        sim.schedule(params.wake_interval, self._wake_up)
        if self._train is not None or self.radio.state is not OFF:
            return  # busy sending or still awake from last activity
        self.radio.turn_on()
        listen = params.listen_window
        self._awake_until = sim.now + listen
        # Sample densely (1 ms) so any ongoing train — mostly airtime with
        # short ack gaps — is guaranteed to hit at least one sample.
        self._sample_channel(samples_left=listen // MILLISECOND)
        sim.schedule(listen, self._maybe_sleep)

    def _sample_channel(self, samples_left: int) -> None:
        radio = self.radio
        state = radio.state
        if state is OFF or state is TX:
            return
        if state is RECEIVING or not radio.cca_clear():
            self._extend_awake()
            return  # energy found; stay up to receive, stop sampling
        if samples_left > 1:
            self.sim.schedule(MILLISECOND, self._sample_channel, samples_left - 1)

    def _extend_awake(self, duration: Optional[int] = None) -> None:
        if duration is None:
            duration = self.params.active_timeout
        deadline = self.sim.now + duration
        if deadline > self._awake_until:
            self._awake_until = deadline
            self.sim.schedule(duration, self._maybe_sleep)

    def _shorten_awake(self) -> None:
        """Sleep soon: what we just overheard is not for us (LPL receivers
        check the address of one preamble copy and go back to sleep)."""
        if self.always_on or self._train is not None:
            return
        soon = self.sim.now + 3 * MILLISECOND
        if self._awake_until > soon:
            self._awake_until = soon
            self.sim.schedule(3 * MILLISECOND, self._maybe_sleep)

    def _maybe_sleep(self) -> None:
        state = self.radio.state
        if self.always_on or state is OFF:
            return
        if self._train is not None:
            return  # the train teardown handles sleeping
        if self.sim.now < self._awake_until:
            return  # a later _maybe_sleep is scheduled
        if state is RECEIVING or state is TX:
            self.sim.schedule(2 * MILLISECOND, self._maybe_sleep)
            return
        self.radio.turn_off()

    # ---------------------------------------------------------------- sending
    def send(
        self, frame: Frame, done: Optional[Callable[[SendResult], None]] = None
    ) -> None:
        """Unicast (acked) or broadcast (unacked) depending on ``frame.dst``."""
        frame.ack_requested = not frame.is_broadcast
        self._enqueue(frame, done, anycast=False)

    def send_anycast(
        self, frame: Frame, done: Optional[Callable[[SendResult], None]] = None
    ) -> None:
        """Anycast: broadcast-addressed but acked by the best eligible node."""
        frame.dst = BROADCAST
        frame.ack_requested = True
        self._enqueue(frame, done, anycast=True)

    def _enqueue(
        self,
        frame: Frame,
        done: Optional[Callable[[SendResult], None]],
        anycast: bool,
    ) -> None:
        self._queue.append((frame, done, anycast))
        if self._train is None:
            self._next_train()

    def cancel_matching(self, predicate: Callable[[Frame], bool]) -> int:
        """Abort queued and in-progress sends whose frame matches ``predicate``.

        Completion callbacks fire with ``ok=False, reason="cancelled"``.
        Returns the number of sends cancelled. Used by opportunistic
        forwarding to kill a pending train once another node is observed
        carrying the same packet at least as far.
        """
        cancelled = 0
        kept: Deque[Tuple[Frame, Optional[Callable[[SendResult], None]], bool]] = deque()
        while self._queue:
            frame, done, anycast = self._queue.popleft()
            if predicate(frame):
                cancelled += 1
                if done is not None:
                    done(
                        SendResult(
                            ok=False,
                            frame=frame,
                            started=self.sim.now,
                            finished=self.sim.now,
                            reason="cancelled",
                        )
                    )
            else:
                kept.append((frame, done, anycast))
        self._queue = kept
        train = self._train
        if train is not None and not train.finished and predicate(train.frame):
            cancelled += 1
            self._finish_train(ok=False, reason="cancelled")
        return cancelled

    def _next_train(self) -> None:
        if self._train is not None or not self._queue:
            return
        frame, done, anycast = self._queue.popleft()
        window = self.params.wake_interval + self.params.train_slack
        self._train = _TrainState(
            frame=frame,
            done=done,
            deadline=self.sim.now + window,
            started=self.sim.now,
            anycast=anycast,
        )
        self.trains_sent += 1
        self.radio.turn_on()
        self._csma_then_send()

    def _csma_then_send(self, train: Optional[_TrainState] = None) -> None:
        if train is None:
            train = self._train
        if train is None or train is not self._train or train.finished:
            return
        state = self.radio.state
        if state is OFF:
            # Node failure injected mid-train: abort the send.
            self._finish_train(ok=False, reason="dead")
            return
        if state is RECEIVING or state is TX:
            # Let the in-flight reception or ack transmission finish first.
            self.sim.schedule(2 * MILLISECOND, self._csma_then_send, train)
            return
        if not self.radio.cca_clear():
            train.csma_tries += 1
            if train.csma_tries > self.params.csma_attempts:
                self._finish_train(ok=False, reason="busy")
                return
            backoff = self._rng.randint(1, self.params.csma_backoff)
            self.sim.schedule(backoff, self._csma_then_send, train)
            return
        self._send_copy(train)

    def _send_copy(self, train: _TrainState) -> None:
        if train is not self._train or train.finished:
            return
        plain_broadcast = train.frame.is_broadcast and not train.anycast
        if self.sim.now >= train.deadline or (
            plain_broadcast
            and self.params.broadcast_copies_cap is not None
            and train.copies >= self.params.broadcast_copies_cap
        ):
            self._finish_train(ok=plain_broadcast, reason="" if plain_broadcast else "timeout")
            return
        state = self.radio.state
        if state is OFF:
            self._finish_train(ok=False, reason="dead")
            return
        if state is RECEIVING or state is TX:
            self.sim.schedule(2 * MILLISECOND, self._send_copy, train)
            return
        train.copies += 1
        self.copies_sent += 1
        self.radio.transmit(train.frame, done=lambda: self._copy_done(train))

    def _copy_done(self, train: _TrainState) -> None:
        if train is not self._train or train.finished:
            return
        if train.frame.ack_requested:
            # Listen for the ack during the gap; the ack arrives through
            # _on_frame and finishes the train.
            self.sim.schedule(self.params.ack_gap, self._ack_gap_over, train)
        else:
            self.sim.schedule(self.params.broadcast_gap, self._send_copy, train)

    def _ack_gap_over(self, train: _TrainState) -> None:
        if train is not self._train or train.finished:
            return
        self._send_copy(train)

    def _finish_train(self, ok: bool, acker: Optional[int] = None, reason: str = "") -> None:
        train = self._train
        assert train is not None
        train.finished = True
        self._train = None
        if (
            ok
            and train.anycast
            and acker is not None
            and self.params.handover_announce
            and self.radio.state is IDLE
        ):
            announce = Frame(
                src=self.node_id,
                dst=BROADCAST,
                type=FrameType.HANDOVER,
                payload=(train.frame.frame_id, acker),
                length=12,
            )
            self.copies_sent += 1
            self.radio.transmit(announce)
        result = SendResult(
            ok=ok,
            frame=train.frame,
            acker=acker,
            copies=train.copies,
            started=train.started,
            finished=self.sim.now,
            reason=reason,
        )
        # Return to duty cycling unless more traffic is queued.
        if self._queue:
            self.sim.schedule(0, self._next_train)
        elif not self.always_on:
            self._awake_until = self.sim.now + 2 * MILLISECOND
            self.sim.schedule(2 * MILLISECOND, self._maybe_sleep)
        if train.done is not None:
            train.done(result)

    # --------------------------------------------------------------- receive
    def _remember(self, frame_id: int, acked: bool) -> None:
        self._seen[frame_id] = acked
        while len(self._seen) > self.params.dedup_cache:
            self._seen.popitem(last=False)

    def _on_frame(self, frame: Frame, rssi: float) -> None:
        frame_type = frame.type
        if frame_type is _ACK:
            self._handle_ack(frame)
            return
        if frame_type is _WIFI:
            return  # foreign modulation, never decodable
        if frame.src == self.node_id:
            return
        if self.snoop_handler is not None and frame.frame_id not in self._seen:
            self.snoop_handler(frame, rssi)
        is_duplicate = frame.frame_id in self._seen
        if frame.ack_requested and frame.is_broadcast:
            # Anycast: ask the upper layer (once); re-ack duplicates we won.
            if is_duplicate:
                if self._seen[frame.frame_id]:
                    self._extend_awake(12 * MILLISECOND)
                    # Re-ack with a delay randomised across the sender's
                    # listening gap: two co-winners whose first acks collided
                    # must dephase or they collide on every copy of the train.
                    reack_window = max(
                        self.params.ack_gap - self.ack_airtime - 400, 1
                    )
                    self.sim.schedule(
                        self._rng.randrange(reack_window),
                        self._anycast_ack_and_deliver,
                        frame,
                        rssi,
                    )
                else:
                    self._shorten_awake()
                return
            decision = (
                self.anycast_handler(frame, rssi)
                if self.anycast_handler is not None
                else AnycastDecision.reject()
            )
            self._remember(frame.frame_id, decision.accept)
            if not decision.accept:
                self._shorten_awake()
                return
            delay = decision.slot * self.params.anycast_slot + self._rng.randrange(
                max(self.params.anycast_slot // 3, 1)
            )
            self._extend_awake(delay + 12 * MILLISECOND)
            self.sim.schedule(delay, self._anycast_ack_and_deliver, frame, rssi)
            return
        if frame.is_broadcast:
            # One copy is the whole message: deliver (if new) and sleep early
            # rather than sitting through the rest of the sender's train.
            self._shorten_awake()
            if is_duplicate:
                return
            self._remember(frame.frame_id, False)
            self._deliver(frame, rssi)
            return
        if frame.dst != self.node_id:
            self._shorten_awake()
            return
        if not self.always_on:
            self._extend_awake()
        if frame.ack_requested:
            self._send_ack(frame)
        if is_duplicate:
            return
        self._remember(frame.frame_id, frame.ack_requested)
        self._deliver(frame, rssi)

    def _anycast_ack_and_deliver(self, frame: Frame, rssi: float) -> None:
        # Suppression: if someone else already acked this frame (we overheard
        # their ack and marked the frame), stay silent.
        if self._seen.get(frame.frame_id) is None:
            return  # cache evicted; ignore stale event
        if not self._seen[frame.frame_id]:
            return  # suppressed meanwhile
        state = self.radio.state
        if state is OFF or state is TX or state is RECEIVING:
            return
        self._send_ack(frame)
        if frame.frame_id not in self._delivered_ids:
            self._delivered_ids[frame.frame_id] = True
            while len(self._delivered_ids) > self.params.dedup_cache:
                self._delivered_ids.popitem(last=False)
            self._deliver(frame, rssi)

    def _send_ack(self, frame: Frame) -> None:
        """Queue the RX→TX turnaround, then put the ack on the air."""
        self.sim.schedule(self.turnaround, self._transmit_ack, frame)

    def _transmit_ack(self, frame: Frame) -> None:
        state = self.radio.state
        if state is OFF or state is TX or state is RECEIVING:
            return
        ack = Frame(
            src=self.node_id,
            dst=frame.src,
            type=FrameType.ACK,
            payload=frame.frame_id,
            length=self.ACK_LENGTH,
        )
        self.acks_sent += 1
        self.radio.transmit(ack)

    def _handle_ack(self, ack: Frame) -> None:
        train = self._train
        if train is not None and not train.finished and ack.payload == train.frame.frame_id:
            if ack.dst == self.node_id:
                self._finish_train(ok=True, acker=ack.src)
                return
        # Overheard an ack for a frame we were considering anycast-acking:
        # suppress our own (slower) ack.
        if ack.payload in self._seen and ack.src != self.node_id and ack.dst != self.node_id:
            self._seen[ack.payload] = False

    def _deliver(self, frame: Frame, rssi: float) -> None:
        self.frames_delivered += 1
        if self.receive_handler is not None:
            self.receive_handler(frame, rssi)

    # ----------------------------------------------------------------- stats
    def duty_cycle(self, since: int = 0) -> float:
        """Fraction of time the radio has been on since ``since`` (ticks)."""
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return min(self.radio.on_time() / elapsed, 1.0)
