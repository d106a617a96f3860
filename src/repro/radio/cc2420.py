"""CC2420 radio constants and the SNR→PRR curve.

Parameter values follow the CC2420 datasheet (the paper: "We select radio
model parameters in the simulations strictly according to the CC2420 radio
hardware specification"). The bit-error-rate formula is the one TOSSIM and
Zuniga & Krishnamachari use for 802.15.4's O-QPSK with DSSS (16-ary
orthogonal signalling over an AWGN channel):

    BER(snr) = (8/15) * (1/16) * sum_{k=2..16} (-1)^k C(16,k) exp(20*snr*(1/k - 1))

with ``snr`` linear. Packet reception ratio over ``f`` bytes is then
``PRR = (1 - BER)^(8 f)``.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.sim.units import MICROSECOND

#: CC2420 output power (dBm) per register power level (datasheet table 9).
POWER_LEVEL_DBM: Dict[int, float] = {
    31: 0.0,
    27: -1.0,
    23: -3.0,
    19: -5.0,
    15: -7.0,
    11: -10.0,
    7: -15.0,
    3: -25.0,
}

_BINOM_16 = [math.comb(16, k) for k in range(17)]

#: :meth:`CC2420.prr` per ``(SNR in tenths of a dB, frame bytes)``; bounded
#: by the ~250 tenths between the curve's range checks times the frame sizes.
_PRR_MEMO: Dict[Tuple[int, int], float] = {}


class CC2420:
    """CC2420 PHY constants and reception-probability helpers."""

    BIT_RATE_BPS = 250_000
    #: PHY overhead bytes: 4 preamble + 1 SFD + 1 length (FCS counted in frame).
    PHY_OVERHEAD_BYTES = 6
    SENSITIVITY_DBM = -95.0
    #: CCA threshold (energy-detect), datasheet default -77 dBm; real
    #: deployments tune it near the sensitivity floor for LPL wake-up.
    CCA_THRESHOLD_DBM = -77.0
    #: Receiver noise figure folded into the noise floor used for SNR.
    NOISE_FLOOR_DBM = -98.0
    TURNAROUND_US = 192  # RX/TX turnaround, 12 symbol periods
    MAX_FRAME_BYTES = 127

    @staticmethod
    def power_level_to_dbm(level: int) -> float:
        """Map a CC2420 register power level (0..31) to output dBm.

        Levels between datasheet anchor points are linearly interpolated;
        levels below 3 extrapolate the 3→7 slope (the paper's testbed uses
        level 2 to force multi-hop topologies).
        """
        if level in POWER_LEVEL_DBM:
            return POWER_LEVEL_DBM[level]
        anchors = sorted(POWER_LEVEL_DBM)
        if level >= anchors[-1]:
            return POWER_LEVEL_DBM[anchors[-1]]
        lo_anchor, hi_anchor = anchors[0], anchors[1]
        for a in anchors:
            if a <= level:
                lo_anchor = a
            else:
                hi_anchor = a
                break
        if level < anchors[0]:
            # Extrapolate below the lowest anchor with the first segment slope.
            lo_anchor, hi_anchor = anchors[0], anchors[1]
            slope = (POWER_LEVEL_DBM[hi_anchor] - POWER_LEVEL_DBM[lo_anchor]) / (
                hi_anchor - lo_anchor
            )
            return POWER_LEVEL_DBM[lo_anchor] + slope * (level - lo_anchor)
        if lo_anchor == hi_anchor:
            return POWER_LEVEL_DBM[lo_anchor]
        frac = (level - lo_anchor) / (hi_anchor - lo_anchor)
        return POWER_LEVEL_DBM[lo_anchor] + frac * (
            POWER_LEVEL_DBM[hi_anchor] - POWER_LEVEL_DBM[lo_anchor]
        )

    @staticmethod
    def bit_error_rate(snr_db_tenths: int) -> float:
        """BER for a given SNR, passed as tenths of dB (the curve's resolution)."""
        snr = 10.0 ** (snr_db_tenths / 10.0 / 10.0)
        total = 0.0
        for k in range(2, 17):
            total += ((-1) ** k) * _BINOM_16[k] * math.exp(20.0 * snr * (1.0 / k - 1.0))
        ber = (8.0 / 15.0) * (1.0 / 16.0) * total
        return min(max(ber, 0.0), 0.5)

    @staticmethod
    def prr(snr_db: float, frame_bytes: int) -> float:
        """Packet reception ratio at ``snr_db`` for a ``frame_bytes`` frame.

        Called once per reception: between the two range checks the curve
        only sees the SNR in tenths of a dB, so each value is memoised on
        ``(round(snr_db * 10), frame_bytes)``.
        """
        if snr_db <= -10.0:
            return 0.0
        if snr_db >= 15.0:
            return 1.0
        key = (round(snr_db * 10), frame_bytes)
        prr = _PRR_MEMO.get(key)
        if prr is None:
            ber = CC2420.bit_error_rate(key[0])
            prr = _PRR_MEMO[key] = (1.0 - ber) ** (8 * max(frame_bytes, 1))
        return prr


def packet_airtime(frame_bytes: int) -> int:
    """Airtime in simulator ticks (µs) of a frame with PHY overhead."""
    total_bytes = frame_bytes + CC2420.PHY_OVERHEAD_BYTES
    return (total_bytes * 8 * 1_000_000 // CC2420.BIT_RATE_BPS) * MICROSECOND
