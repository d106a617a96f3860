"""LoRa-class long-range radio profile (SX127x-style, SF10/125 kHz).

The second registered :class:`~repro.radio.profiles.RadioProfile`, proving
the PHY/MAC seam with a radio at the opposite end of the design space from
the CC2420: chirp-spread-spectrum airtime measured in hundreds of
milliseconds (raw bitrate under 1 kbps at the default SF10), multi-km
log-distance propagation, sub-noise-floor demodulation (the per-SF SNR
floor is -15 dB at SF10), and SX127x-style per-state currents. Its MAC is
the p-persistent CSMA adapter (:mod:`repro.mac.pcsma`) rather than LPL.

Airtime follows the Semtech LoRa modem formula: a frame is a preamble of
``preamble_symbols + 4.25`` symbols plus ``8 + max(ceil((8·PL - 4·SF + 28
+ 16) / (4·(SF - 2·DE)))·(CR + 4), 0)`` payload symbols, each symbol
lasting ``2^SF / BW`` seconds (low-data-rate optimisation DE kicks in when
a symbol exceeds 16 ms, as at SF10/125 kHz).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.radio.profiles import RadioProfile, register_radio_profile
from repro.radio.propagation import LogDistancePathLoss
from repro.sim.units import MICROSECOND, MILLISECOND, SECOND

if TYPE_CHECKING:  # import cycles: mac builds on radio
    from repro.mac.base import MacAdapter
    from repro.mac.lpl import MacParams
    from repro.radio.noise import NoiseModel
    from repro.radio.radio import Radio
    from repro.sim import Simulator

#: Demodulation SNR floor (dB) per spreading factor — the margin at which
#: the chirp correlator starts decoding below the thermal noise floor.
SNR_FLOOR_DB: Dict[int, float] = {
    7: -7.5,
    8: -10.0,
    9: -12.5,
    10: -15.0,
    11: -17.5,
    12: -20.0,
}


@lru_cache(maxsize=4096)
def _symbol_error_rate(margin_db_tenths: int) -> float:
    """Symbol error rate at a demodulation margin (tenths of dB, cached)."""
    margin_db = margin_db_tenths / 10.0
    # Gaussian waterfall around the SNR floor, ~1.5 dB transition width.
    return 0.5 * math.erfc(margin_db / (1.5 * math.sqrt(2.0)))


class LoRaProfile(RadioProfile):
    """SX127x-style long-range radio under p-CSMA, default SF10/125 kHz."""

    name = "lora"
    spreading_factor = 10
    bandwidth_hz = 125_000
    #: Coding rate index: 1 means CR 4/5 (4 data bits per 5 coded).
    coding_rate = 1
    preamble_symbols = 12

    #: Effective raw PHY bitrate, SF·BW·CR/(2^SF) — 976 bps at the
    #: defaults, i.e. genuinely sub-kbps.
    bit_rate_bps = 976
    #: Explicit-header LoRa has no fixed per-frame byte overhead here; the
    #: preamble and header costs are in the symbol formula instead.
    phy_overhead_bytes = 0
    max_frame_bytes = 255
    #: SX1276 sensitivity at SF10/125 kHz.
    sensitivity_dbm = -132.0
    #: Energy-detect CCA. Must sit above the thermal floor (-117) or the
    #: channel never samples clear; 7 dB of headroom mirrors the CC2420
    #: profile's noise-to-CCA gap scaled to LoRa's tighter link budget.
    #: (Real SX127x CAD detects preambles below the floor; this simulator
    #: models CCA as energy detection, so the threshold is an energy one.)
    cca_threshold_dbm = -110.0
    #: Thermal floor: -174 + 10·log10(125 kHz) + NF 6 dB.
    noise_floor_dbm = -117.0
    deaf_threshold_dbm = -140.0
    #: RX→TX turnaround (1 ms; chirp ramp-up, not a 192 µs 802.15.4 twelve
    #: symbol turnaround).
    turnaround_ticks = 1 * MILLISECOND
    #: SX127x datasheet currents: RX 11.5 mA, sleep 0.2 µA, TX from the
    #: +7 dBm low-power setting up to the +20 dBm PA_BOOST step.
    rx_current_ma = 11.5
    sleep_current_ma = 0.0002
    tx_current_ma_table: Mapping[float, float] = {
        7.0: 20.0,
        13.0: 29.0,
        17.0: 90.0,
        20.0: 120.0,
    }
    default_tx_power_dbm = 14.0
    #: Routing beacons Trickle from 8 s (512 ms would drown a 976 bps link).
    beacon_i_min = 8 * SECOND

    # ------------------------------------------------------------- PHY math
    def symbol_time_us(self) -> int:
        """One chirp symbol in µs: ``2^SF / BW`` (8192 µs at SF10/125 kHz)."""
        return (1 << self.spreading_factor) * 1_000_000 // self.bandwidth_hz

    def payload_symbols(self, frame_bytes: int) -> int:
        """Payload symbol count per the Semtech modem formula."""
        sf = self.spreading_factor
        t_sym = self.symbol_time_us()
        low_dr_opt = 1 if t_sym > 16_000 else 0
        numerator = 8 * frame_bytes - 4 * sf + 28 + 16
        blocks = math.ceil(numerator / (4 * (sf - 2 * low_dr_opt)))
        return 8 + max(blocks * (self.coding_rate + 4), 0)

    def packet_airtime(self, frame_bytes: int) -> int:
        t_sym = self.symbol_time_us()
        preamble = self.preamble_symbols * t_sym + (t_sym * 17) // 4  # +4.25 sym
        return (preamble + self.payload_symbols(frame_bytes) * t_sym) * MICROSECOND

    def prr(self, snr_db: float, frame_bytes: int) -> float:
        margin = snr_db - SNR_FLOOR_DB[self.spreading_factor]
        if margin <= -2.0:
            return 0.0
        if margin >= 6.0:
            return 1.0
        ser = _symbol_error_rate(int(round(margin * 10.0)))
        return (1.0 - ser) ** self.payload_symbols(frame_bytes)

    # -------------------------------------------------------------- defaults
    def build_noise_model(self, kind: str, seed: int = 0) -> "NoiseModel":
        """A 125 kHz LoRa channel does not see 802.15.4-band CPM bursts;
        both noise kinds resolve to the profile's thermal floor."""
        from repro.radio.noise import ConstantNoise

        if kind not in ("cpm", "constant"):
            raise ValueError(f"unknown noise model {kind!r}")
        return ConstantNoise(self.noise_floor_dbm)

    def default_propagation(self, seed: int = 0) -> LogDistancePathLoss:
        """Suburban/open-field loss: multi-km range at +14 dBm."""
        return LogDistancePathLoss(
            path_loss_exponent=2.9, pl_d0=40.0, shadowing_sigma=4.0, seed=seed
        )

    def default_mac_params(self, always_on: bool = False) -> Optional[MacParams]:
        from repro.mac.pcsma import PCsmaParams

        return PCsmaParams.lora_defaults()

    def build_mac(
        self,
        sim: Simulator,
        radio: Radio,
        params: Optional[MacParams] = None,
        always_on: bool = False,
    ) -> MacAdapter:
        from repro.mac.pcsma import PCsmaMac

        return PCsmaMac(sim, radio, params=params, always_on=always_on, profile=self)


register_radio_profile(LoRaProfile())
