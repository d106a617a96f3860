"""The radio profile registry: one typed object per PHY/MAC personality.

A :class:`RadioProfile` owns everything the stack historically pulled from
scattered CC2420 constants: airtime/bitrate math, the SNR→PRR curve, the
reception thresholds the channel resolves packets against, per-state current
draw (the single source of truth for both the energy report and the battery
depletion monitor), propagation defaults, simulation timescales, and — via
:meth:`RadioProfile.build_mac` — which :class:`~repro.mac.base.MacAdapter`
runs on each node. The harness, channel, MAC, energy accounting, experiment
drivers, and CLI all dispatch through the profile, mirroring the
``repro.protocols`` adapter architecture: registering a new profile
(:func:`register_radio_profile`) makes the radio runnable everywhere at once.

The default profile (``"cc2420"``) reproduces the pre-registry constants
bit for bit — same integer airtimes, the same memoised PRR curve object,
the same float thresholds — so every golden digest and cache fingerprint is
unchanged when ``NetworkConfig.radio_profile`` is left at ``None``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.radio.cc2420 import CC2420
from repro.radio.propagation import LogDistancePathLoss
from repro.sim.units import MICROSECOND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mac.base import MacAdapter
    from repro.mac.lpl import MacParams
    from repro.radio.noise import NoiseModel
    from repro.radio.radio import Radio
    from repro.sim.simulator import Simulator

#: The profile a config with ``radio_profile=None`` resolves to.
DEFAULT_RADIO_PROFILE = "cc2420"


class RadioProfile:
    """One radio personality: PHY math, thresholds, currents, MAC, defaults.

    Subclasses set the class attributes below (and usually override
    :meth:`prr`); everything else — generic bitrate-derived airtime, the
    interpolated transmit-current curve, the LPL MAC — comes from the base
    implementation. Instances are stateless and shared; register one with
    :func:`register_radio_profile` to make it available to
    ``NetworkConfig.radio_profile`` everywhere (harness, runner, CLI).
    """

    #: Registry name (``NetworkConfig.radio_profile`` value).
    name: str = "base"
    #: Raw PHY bit rate; the base airtime formula derives frame airtime
    #: from this instead of any hard-coded radio constant.
    bit_rate_bps: int = 250_000
    #: PHY framing overhead added to every frame (preamble/SFD/length).
    phy_overhead_bytes: int = 6
    max_frame_bytes: int = 127
    #: Below this received power (dBm) a frame cannot lock the receiver.
    sensitivity_dbm: float = -95.0
    #: Default clear-channel-assessment threshold (dBm).
    cca_threshold_dbm: float = -77.0
    #: Noise floor used for clean-channel SNR estimates (dBm).
    noise_floor_dbm: float = -98.0
    #: Below this received power a transmission is inaudible (not even
    #: interference); the channel's link-culling floor.
    deaf_threshold_dbm: float = -110.0
    #: RX→TX turnaround before an acknowledgement, in simulator ticks.
    turnaround_ticks: int = 192
    #: Per-state supply currents (mA) — the one source of truth consumed by
    #: both :mod:`repro.radio.energy` and the battery depletion monitor.
    rx_current_ma: float = 19.7
    sleep_current_ma: float = 0.021
    tx_current_ma_table: Mapping[float, float] = {0.0: 17.4}
    #: Typical output power for profile-scaled deployment generators.
    default_tx_power_dbm: float = 0.0
    #: CTP routing-beacon Trickle bounds in ticks; ``None`` keeps the
    #: stack-wide defaults (:data:`repro.net.trickle.CTP_BEACON_I_MIN`).
    beacon_i_min: Optional[int] = None
    beacon_i_max_doublings: Optional[int] = None

    # ------------------------------------------------------------- PHY math
    def packet_airtime(self, frame_bytes: int) -> int:
        """Airtime in simulator ticks (µs) of a frame with PHY overhead.

        Derived from :attr:`bit_rate_bps` with the same integer arithmetic
        the historical CC2420 helper used, so the default profile's values
        are bit-identical to :func:`repro.radio.cc2420.packet_airtime`.
        """
        total_bytes = frame_bytes + self.phy_overhead_bytes
        return (total_bytes * 8 * 1_000_000 // self.bit_rate_bps) * MICROSECOND

    def prr(self, snr_db: float, frame_bytes: int) -> float:
        """Packet reception ratio at ``snr_db`` for a ``frame_bytes`` frame."""
        raise NotImplementedError

    # -------------------------------------------------------------- currents
    def tx_current_ma(self, tx_power_dbm: float) -> float:
        """Interpolated transmit current for an output power in dBm."""
        table = self.tx_current_ma_table
        anchors = sorted(table)
        if tx_power_dbm <= anchors[0]:
            return table[anchors[0]]
        if tx_power_dbm >= anchors[-1]:
            return table[anchors[-1]]
        for low, high in zip(anchors, anchors[1:]):
            if low <= tx_power_dbm <= high:
                frac = (tx_power_dbm - low) / (high - low)
                return table[low] + frac * (table[high] - table[low])
        return self.rx_current_ma  # pragma: no cover - unreachable

    # -------------------------------------------------------------- defaults
    def build_noise_model(self, kind: str, seed: int = 0) -> "NoiseModel":
        """Ambient-noise model for ``NetworkConfig.noise`` (``"cpm"``/``"constant"``).

        The base implementation reproduces the harness's historical
        construction exactly: a CPM model trained on a synthetic
        meyer-heavy-like trace, or the constant -98 dBm floor.
        """
        from repro.radio.noise import (
            ConstantNoise,
            CPMNoiseModel,
            synthesize_meyer_like_trace,
        )

        if kind == "cpm":
            trace = synthesize_meyer_like_trace(seed=seed)
            return CPMNoiseModel(trace, seed=seed)
        if kind == "constant":
            return ConstantNoise()
        raise ValueError(f"unknown noise model {kind!r}")

    def default_propagation(self, seed: int = 0) -> LogDistancePathLoss:
        """The path-loss model profile-scaled deployments are generated on."""
        return LogDistancePathLoss(
            path_loss_exponent=4.0, pl_d0=40.0, shadowing_sigma=3.2, seed=seed
        )

    def default_mac_params(self, always_on: bool = False) -> Optional["MacParams"]:
        """MAC timing for this profile; ``None`` keeps the MAC's defaults."""
        if always_on:
            from repro.mac.lpl import MacParams

            return MacParams.always_on_network()
        return None

    def build_mac(
        self,
        sim: "Simulator",
        radio: "Radio",
        params: Optional["MacParams"] = None,
        always_on: bool = False,
    ) -> "MacAdapter":
        """Construct this profile's MAC adapter bound to ``radio``."""
        from repro.mac.lpl import LPLMac

        return LPLMac(sim, radio, params=params, always_on=always_on, profile=self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class CC2420Profile(RadioProfile):
    """The paper's CC2420/TelosB stack: 802.15.4 PHY under the LPL MAC.

    Every value delegates to (or duplicates exactly) the historical module
    constants, including the memoised PRR curve — this profile *is*
    the pre-registry behaviour, bit for bit.
    """

    name = "cc2420"
    bit_rate_bps = CC2420.BIT_RATE_BPS
    phy_overhead_bytes = CC2420.PHY_OVERHEAD_BYTES
    max_frame_bytes = CC2420.MAX_FRAME_BYTES
    sensitivity_dbm = CC2420.SENSITIVITY_DBM
    cca_threshold_dbm = CC2420.CCA_THRESHOLD_DBM
    noise_floor_dbm = CC2420.NOISE_FLOOR_DBM
    deaf_threshold_dbm = -110.0
    turnaround_ticks = CC2420.TURNAROUND_US
    #: CC2420 datasheet currents (mA); TelosB-class sleep current.
    rx_current_ma = 19.7
    sleep_current_ma = 0.021
    tx_current_ma_table: Mapping[float, float] = {
        0.0: 17.4,
        -1.0: 16.5,
        -3.0: 15.2,
        -5.0: 13.9,
        -7.0: 12.5,
        -10.0: 11.2,
        -15.0: 9.9,
        -25.0: 8.5,
    }
    default_tx_power_dbm = 0.0

    #: The TOSSIM O-QPSK/DSSS curve: the very staticmethod object of
    #: :meth:`CC2420.prr`, so a reception's PRR lookup is one call into
    #: the memoised curve rather than a delegating method.
    prr = vars(CC2420)["prr"]


class RadioProfileRegistry:
    """Registered radio profiles, keyed by name (registration order kept)."""

    def __init__(self) -> None:
        self._profiles: Dict[str, RadioProfile] = {}

    # ------------------------------------------------------------- mutation
    def register(self, profile: RadioProfile, replace: bool = False) -> None:
        """Register ``profile`` under its :attr:`~RadioProfile.name`.

        Duplicate names are rejected unless ``replace=True`` (mirrors
        :meth:`repro.protocols.ProtocolRegistry.register`).
        """
        name = profile.name
        if not name or not isinstance(name, str):
            raise ValueError(
                f"radio profile name must be a non-empty string, got {name!r}"
            )
        if name in self._profiles and not replace:
            raise ValueError(
                f"radio profile {name!r} is already registered; "
                f"pass replace=True to override"
            )
        self._profiles[name] = profile

    def unregister(self, name: str) -> None:
        """Remove a profile (no-op when absent)."""
        self._profiles.pop(name, None)

    # -------------------------------------------------------------- queries
    def get(self, name: str) -> RadioProfile:
        """The profile registered under ``name``.

        Raises ``ValueError`` listing the registered names for unknown
        profiles (mirrors the protocol registry's unknown-name error).
        """
        try:
            return self._profiles[name]
        except KeyError:
            raise ValueError(
                f"unknown radio profile {name!r}; "
                f"choose from {sorted(self._profiles)} "
                f"or register one with repro.radio.register_radio_profile"
            ) from None

    def names(self) -> List[str]:
        """Registered profile names, in registration order."""
        return list(self._profiles)


#: The process-wide registry every ``NetworkConfig.radio_profile`` resolves in.
RADIO_REGISTRY = RadioProfileRegistry()


def register_radio_profile(profile: RadioProfile, replace: bool = False) -> None:
    """Register a profile with the process-wide registry (public plugin API)."""
    RADIO_REGISTRY.register(profile, replace=replace)


def unregister_radio_profile(name: str) -> None:
    """Remove a profile from the process-wide registry."""
    RADIO_REGISTRY.unregister(name)


def get_radio_profile(name: Optional[str]) -> RadioProfile:
    """Resolve a ``NetworkConfig.radio_profile`` value (``None`` = default)."""
    return RADIO_REGISTRY.get(DEFAULT_RADIO_PROFILE if name is None else name)


def radio_profile_names() -> List[str]:
    """Registered radio profile names, in registration order."""
    return RADIO_REGISTRY.names()


register_radio_profile(CC2420Profile())

# The long-range profile registers itself on import; importing it here makes
# ``"lora"`` resolvable the moment the registry module is loaded (the same
# eager-builtin pattern repro.protocols uses for its bundled adapters).
from repro.radio import lora as _lora  # noqa: E402,F401  (self-registering)
