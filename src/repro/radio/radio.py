"""Per-node half-duplex radio device.

The radio exposes the operations a MAC needs — turn on/off, transmit, clear
channel assessment — and accounts for on-time, which the metrics layer turns
into the radio duty cycle the paper reports in Figure 9.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import TYPE_CHECKING, Callable, Optional

from repro.radio.frame import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.radio.channel import Channel
    from repro.sim.simulator import Simulator


class RadioState(Enum):
    """Radio power/activity states."""
    OFF = auto()
    IDLE = auto()  # on, listening
    TX = auto()
    RECEIVING = auto()  # on, locked to an incoming frame


#: The states as module globals. Reading an Enum member through its class
#: costs several times a global read, and the radio, the channel and the LPL
#: MAC test ``radio.state`` on every CCA sample, frame copy and reception.
OFF = RadioState.OFF
IDLE = RadioState.IDLE
TX = RadioState.TX
RECEIVING = RadioState.RECEIVING


class RadioError(RuntimeError):
    """Raised on invalid radio operations (e.g. transmit while off)."""


class Radio:
    """Half-duplex radio attached to a :class:`~repro.radio.channel.Channel`."""

    def __init__(
        self,
        sim: "Simulator",
        channel: "Channel",
        node_id: int,
        tx_power_dbm: float = 0.0,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.node_id = node_id
        self.tx_power_dbm = tx_power_dbm
        self.state = OFF
        #: MAC callback: (frame, rssi_dbm) for every successfully decoded frame.
        self.on_receive: Optional[Callable[[Frame, float], None]] = None
        #: Cumulative on-time in ticks; plus the instant we last turned on.
        self._on_time = 0
        self._on_since: Optional[int] = None
        self.tx_count = 0
        #: Failure injection: a failed radio ignores turn_on until recovered.
        self.failed = False
        channel.attach(self)

    # ----------------------------------------------------------------- power
    @property
    def is_on(self) -> bool:
        """True unless the radio is powered off."""
        return self.state is not OFF

    def fail(self) -> None:
        """Inject a node failure: power down and ignore wake-ups."""
        self.failed = True
        if self.state is TX:
            # Let the in-flight frame finish, then power down.
            self.sim.schedule(5_000, self._fail_when_idle)
        elif self.state is not OFF:
            self.turn_off()

    def _fail_when_idle(self) -> None:
        if not self.failed:
            return
        if self.state is TX:
            self.sim.schedule(5_000, self._fail_when_idle)
        elif self.state is not OFF:
            self.turn_off()

    def recover(self) -> None:
        """Clear an injected failure (the MAC's next wake-up resumes duty)."""
        self.failed = False

    def turn_on(self) -> None:
        """Power the radio up into listening state (no-op if already on)."""
        if self.failed or self.state is not OFF:
            return
        self.state = IDLE
        self._on_since = self.sim.now

    def turn_off(self) -> None:
        """Power the radio down, aborting any in-flight reception."""
        state = self.state
        if state is OFF:
            return
        if state is TX:
            raise RadioError(f"node {self.node_id}: cannot turn off mid-transmission")
        assert self._on_since is not None
        self._on_time += self.sim.now - self._on_since
        self._on_since = None
        self.state = OFF
        self.channel.note_radio_off(self)

    def on_time(self) -> int:
        """Total ticks the radio has been powered, including the current stint."""
        total = self._on_time
        if self._on_since is not None:
            total += self.sim.now - self._on_since
        return total

    def reset_on_time(self) -> None:
        """Zero the accumulated on-time (metrics warm-up boundary)."""
        self._on_time = 0
        if self._on_since is not None:
            self._on_since = self.sim.now

    # -------------------------------------------------------------- transmit
    def transmit(
        self, frame: Frame, done: Optional[Callable[[], None]] = None
    ) -> None:
        """Put ``frame`` on the air; ``done()`` fires when airtime elapses.

        The radio must be on and not already transmitting. An in-progress
        reception is abandoned (half-duplex).
        """
        state = self.state
        if state is OFF:
            raise RadioError(f"node {self.node_id}: transmit while radio off")
        if state is TX:
            raise RadioError(f"node {self.node_id}: transmit while already transmitting")
        self.state = TX
        self.tx_count += 1
        self.channel.start_transmission(self, frame, done)

    def finish_tx(self) -> None:
        """Channel callback: airtime over, return to listening.

        Called *before* the channel resolves receptions of this frame so that
        an immediate acknowledgement finds the sender already listening.
        """
        if self.state is TX:
            self.state = IDLE

    # ------------------------------------------------------------------- CCA
    def cca_clear(self, threshold_dbm: Optional[float] = None) -> bool:
        """Clear-channel assessment: True when in-band energy is below threshold."""
        if self.state is OFF:
            raise RadioError(f"node {self.node_id}: CCA while radio off")
        channel = self.channel
        return channel.energy_dbm_at(self.node_id) < (
            threshold_dbm if threshold_dbm is not None else channel.cca_threshold_dbm
        )

    def deliver(self, frame: Frame, rssi_dbm: float) -> None:
        """Channel callback: a frame was decoded successfully."""
        if self.on_receive is not None:
            self.on_receive(frame, rssi_dbm)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Radio(node={self.node_id}, {self.state.name})"
