"""Shared wireless medium with SINR-based packet reception.

Reception model
---------------
When a transmission starts, every powered-on, idle radio whose received power
clears the deaf threshold begins decoding it (the strongest-first frame locks
the receiver; later-starting overlaps become interference). When the airtime
ends, the channel computes

    SINR = P_rx  -  10 log10( noise_mw + sum(interferer_mw) + sum(overlap_mw) )

with noise drawn from the CPM model and external interferers (e.g. the WiFi
generator) queried for their current in-band power. The frame is delivered
with probability ``PRR(SINR, length)`` from the radio profile's curve (the
CC2420 O-QPSK curve on the default profile). Airtime, sensitivity, the CCA
default, and the deaf threshold likewise come from the channel's
:class:`~repro.radio.profiles.RadioProfile`. Interference from concurrent
packets is weighted by their temporal overlap with the frame.
"""

from __future__ import annotations

import random
from math import log10
from typing import Any, Callable, Dict, List, Optional, Protocol, Set, Tuple

from repro.radio.frame import Frame
from repro.radio.noise import ConstantNoise, NoiseModel
from repro.radio.profiles import RadioProfile, get_radio_profile
from repro.radio.radio import IDLE, RECEIVING, Radio
from repro.radio.spatial import SpatialChannel
from repro.sim.simulator import Simulator


def dbm_to_mw(dbm: float) -> float:
    """Convert dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert milliwatts to dBm (floored at -200)."""
    if mw <= 0.0:
        return -200.0
    return 10.0 * log10(mw)


class Interferer(Protocol):
    """External in-band energy source (e.g. WiFi)."""

    def interference_dbm_at(self, node_id: int) -> Optional[float]:
        """Current in-band power at ``node_id`` in dBm, or None when idle."""


class _Transmission:
    """One frame on the air.

    A slotted class with identity equality: ``_active.remove(tx)`` stops at
    ``tx`` without comparing field tuples of the entries ahead of it.
    """

    __slots__ = ("src", "frame", "start", "end", "rx_power_dbm", "locked")

    def __init__(
        self, src: int, frame: Frame, start: int, end: int, rx_power_dbm: Dict[int, float]
    ) -> None:
        self.src = src
        self.frame = frame
        self.start = start
        self.end = end
        #: Received power per potential receiver (dBm), shared read-only.
        self.rx_power_dbm = rx_power_dbm
        #: Receivers locked onto this packet, in lock order — the exact order
        #: ``_end_transmission`` must resolve them in (it matches the
        #: pending-dict insertion order the resolution loop historically
        #: iterated, so the shared channel RNG stream is consumed identically).
        self.locked: List[Tuple[int, _PendingReception]] = []


class _PendingReception:
    """One receiver locked onto a transmission.

    It keeps the transmission's end tick, not the transmission: with a
    back-reference each locked transmission would form a reference cycle
    with its receptions, left for the cyclic collector to find instead of
    being freed when its airtime ends.
    """

    __slots__ = ("end", "rx_power_dbm", "interference_mw_ticks")

    def __init__(self, end: int, rx_power_dbm: float) -> None:
        #: Tick at which the locked frame's airtime ends.
        self.end = end
        self.rx_power_dbm = rx_power_dbm
        #: mW·ticks of interference accumulated from overlapping packets.
        self.interference_mw_ticks = 0.0


class Channel:
    """The single 802.15.4 channel all radios share.

    ``gains[(a, b)]`` is the channel gain in dB from ``a`` to ``b``; pairs
    missing from the dict are out of range. The channel derives static
    neighbour sets from the gains to avoid all-pairs scans per packet.

    At city scale, pass ``spatial`` (a :class:`SpatialChannel`) instead of a
    dense gain dict: audible-neighbour lists are then derived from grid-hash
    candidate queries — identical lists, O(local density) construction — and
    only audible-pair gains are materialised. ``interference_floor_dbm``
    (default: the deaf threshold) is the received power below which links
    are culled before any per-receiver SNR work.
    """

    def __init__(
        self,
        sim: Simulator,
        gains: Optional[Dict[Tuple[int, int], float]] = None,
        noise_model: Optional[NoiseModel] = None,
        cca_threshold_dbm: Optional[float] = None,
        fading_sigma_db: float = 0.0,
        fading_coherence: int = 5_000_000,
        interference_floor_dbm: Optional[float] = None,
        spatial: Optional[SpatialChannel] = None,
        positions: Optional[List[Tuple[float, float]]] = None,
        propagation: Optional[Any] = None,
        profile: Optional[RadioProfile] = None,
    ) -> None:
        self.sim = sim
        # PHY dispatch: airtime, PRR curve, and reception thresholds all come
        # from the radio profile (default: CC2420, numerically identical to
        # the historical hard-wired constants). The per-reception PRR curve
        # is bound once here so its dispatch is one attribute load.
        if profile is None:
            profile = get_radio_profile(None)
        self.profile = profile
        #: Airtime per frame length: a pure function of the length on a
        #: fixed profile, so nothing invalidates an entry.
        self._airtimes: Dict[int, int] = {}
        self._prr = profile.prr
        self._sensitivity = profile.sensitivity_dbm
        self.deaf_threshold_dbm = profile.deaf_threshold_dbm
        self.cca_threshold_dbm = (
            profile.cca_threshold_dbm if cca_threshold_dbm is None else cca_threshold_dbm
        )
        #: Slow flat fading: a zero-mean Gaussian offset per (link, coherence
        #: bucket), symmetric across directions. This is the "link
        #: burstiness" (Srinivasan et al., the paper's [21]) that makes
        #: distant links transiently usable — the raw material of
        #: opportunistic forwarding — and stored routes transiently wrong.
        self.fading_sigma_db = fading_sigma_db
        self.fading_coherence = fading_coherence
        self._fading_cache: Dict[Tuple[int, int], Tuple[int, float]] = {}
        # Per-source received-power maps, keyed by src with the (fading
        # bucket, tx power, link-fault epoch) they were computed under.
        # Within one coherence bucket every packet from a source lands with
        # exactly the same powers, so the audible-neighbour loop — the single
        # hottest loop in dense grids — runs once per bucket instead of once
        # per packet. The cached dict is shared read-only by transmissions.
        # Each entry also lists the receivers a packet can lock (ids at or
        # above sensitivity, in rx-map order), so locking never walks the
        # merely audible neighbours.
        self._rx_cache: Dict[int, Tuple[int, float, int, Dict[int, float], List[int]]] = {}
        self._fault_epoch = 0
        self._radios: Dict[int, Radio] = {}
        self._noise_master: NoiseModel = (
            noise_model if noise_model is not None else ConstantNoise()
        )
        self._noise: Dict[int, NoiseModel] = {}
        self._active: List[_Transmission] = []
        self._pending: Dict[int, _PendingReception] = {}  # receiver -> reception
        self._interferers: List[Interferer] = []
        self._rng = sim.rng("channel")
        # Static audible-neighbour lists (tx power agnostic: assume max
        # 0 dBm; per-packet power still gates actual reception). Fading can
        # lift a link a few sigma above its mean, so keep margin below the
        # interference floor. Entries are (neighbor, gain, fading_key)
        # triples: the unordered link key is precomputed once here instead
        # of being rebuilt per packet in the transmit hot loop (it doubles
        # as the link-fault key).
        floor = (
            self.deaf_threshold_dbm
            if interference_floor_dbm is None
            else float(interference_floor_dbm)
        )
        self.interference_floor_dbm = floor
        self._audible_floor = floor - 3.0 * fading_sigma_db
        self._spatial = spatial
        # Dense-mode mobility support: with node positions and a propagation
        # model the channel can recompute a moved node's gain row itself
        # (the dense counterpart of the spatial move path). The list is
        # copied — moves must never mutate the caller's deployment.
        if spatial is not None and positions is not None:
            raise ValueError("positions belong to the spatial index in spatial mode")
        self._positions: Optional[List[Tuple[float, float]]] = (
            [(float(x), float(y)) for x, y in positions]
            if positions is not None
            else None
        )
        self._propagation = propagation
        self._audible: Dict[int, List[Tuple[int, float, Tuple[int, int]]]] = {}
        if spatial is not None:
            if gains:
                raise ValueError("pass dense gains or a spatial index, not both")
            if spatial.cull_floor_dbm > self._audible_floor + 1e-9:
                raise ValueError(
                    "spatial culling floor above the channel's audible floor: "
                    f"{spatial.cull_floor_dbm} > {self._audible_floor} dB — "
                    "culling would drop audible links"
                )
            # Derive audible rows from grid candidates, identical to the dense
            # build's. Only audible-pair gains are materialised (the sparse
            # win: O(N·density) memory instead of O(N²)).
            self.gains = {}
            self._build_audible_from_spatial()
        else:
            self.gains = gains if gains is not None else {}
            audible_floor = self._audible_floor
            for (a, b), gain in self.gains.items():
                if gain >= audible_floor:
                    fkey = (a, b) if a <= b else (b, a)
                    self._audible.setdefault(a, []).append((b, gain, fkey))
        #: Observers called for every delivered frame: (receiver, frame, rssi).
        self.delivery_observers: List[Callable[[int, Frame, float], None]] = []
        #: Fault-injection hook: extra attenuation (dB) per unordered link
        #: pair. Empty in fault-free runs (one falsy check per transmission).
        self.link_faults: Dict[Tuple[int, int], float] = {}
        #: Fault-injection hook: ``(src, dst, frame) -> deliver?`` filters
        #: consulted *after* the PRR draw, so an empty list leaves the
        #: channel RNG stream — and thus fault-free behaviour — untouched.
        self.reception_filters: List[Callable[[int, int, Frame], bool]] = []

    def _build_audible_from_spatial(self) -> None:
        """Audible rows from one pass over the unordered candidate pairs.

        An audible pair's gain float and link key serve both rows and both
        ``gains`` entries. Pairs arrive ascending in ``(a, b)``, so ``a``
        joins ``b``'s row before ``b``'s own visit: rows stay ascending.
        """
        spatial = self._spatial
        assert spatial is not None
        audible_floor = self._audible_floor
        gains = self.gains
        rows: List[List[Tuple[int, float, Tuple[int, int]]]] = [
            [] for _ in range(len(spatial))
        ]
        for a, b, gain in spatial.pair_gains():
            if gain >= audible_floor:
                key = (a, b)
                gains[key] = gain
                gains[(b, a)] = gain
                rows[a].append((b, gain, key))
                rows[b].append((a, gain, key))
        for a, row in enumerate(rows):
            if row:
                self._audible[a] = row

    def _rebuild_audible_row(self, a: int, touched: Set[int]) -> None:
        """Recompute ``_audible[a]`` from ``self.gains`` after gain updates.

        ``touched`` names neighbour ids whose (a, b) gain may have appeared,
        changed, or vanished; surviving entries keep ascending-id order so
        rx-map iteration (and thus RNG consumption) stays deterministic.
        """
        old = self._audible.get(a, ())
        ids = sorted({entry[0] for entry in old} | touched)
        entries = []
        for b in ids:
            gain = self.gains.get((a, b))
            if gain is not None and gain >= self._audible_floor:
                entries.append((b, gain, (a, b) if a <= b else (b, a)))
        if entries:
            self._audible[a] = entries
        else:
            self._audible.pop(a, None)

    # ------------------------------------------------------------ attachment
    def attach(self, radio: Radio) -> None:
        """Register a radio with this channel."""
        if radio.node_id in self._radios:
            raise ValueError(f"duplicate radio for node {radio.node_id}")
        self._radios[radio.node_id] = radio
        self._noise[radio.node_id] = self._noise_master.fork(
            seed=(self.sim.seed << 20) ^ radio.node_id
        )

    def add_interferer(self, interferer: Interferer) -> None:
        """Register an external in-band energy source."""
        self._interferers.append(interferer)

    def note_radio_off(self, radio: Radio) -> None:
        """A radio powered off: drop the reception it was decoding."""
        self._pending.pop(radio.node_id, None)

    # ---------------------------------------------------------------- energy
    def energy_dbm_at(self, node_id: int) -> float:
        """Instantaneous in-band energy a CCA at ``node_id`` would read."""
        # Hot per-CCA path: dbm_to_mw and mw_to_dbm are inlined, and the
        # interferer query is skipped when there are none (it would add
        # exactly 0.0). Interferers are summed into their own accumulator
        # before joining the total: noise + (i1 + i2 + ...), never
        # (noise + i1) + i2.
        total_mw = 10.0 ** (self._noise[node_id].sample() / 10.0)
        interferers = self._interferers
        if interferers:
            extra_mw = 0.0
            for interferer in interferers:
                dbm = interferer.interference_dbm_at(node_id)
                if dbm is not None:
                    extra_mw += 10.0 ** (dbm / 10.0)
            total_mw += extra_mw
        for tx in self._active:
            power = tx.rx_power_dbm.get(node_id)
            if power is not None:
                total_mw += 10.0 ** (power / 10.0)
        return -200.0 if total_mw <= 0.0 else 10.0 * log10(total_mw)

    # ----------------------------------------------------------------- fading
    def fading_db(self, a: int, b: int) -> float:
        """Current fading offset for the (unordered) link ``a``–``b``."""
        if self.fading_sigma_db <= 0.0:
            return 0.0
        key = (a, b) if a <= b else (b, a)
        bucket = self.sim.now // self.fading_coherence
        cached = self._fading_cache.get(key)
        if cached is not None and cached[0] == bucket:
            return cached[1]
        return self._fading_miss(key, bucket)

    def _fading_miss(self, key: Tuple[int, int], bucket: int) -> float:
        # Deterministic per (seed, link, bucket): replays are reproducible.
        rng = random.Random(
            (self.sim.seed << 48) ^ (key[0] << 34) ^ (key[1] << 20) ^ bucket
        )
        value = rng.gauss(0.0, self.fading_sigma_db)
        self._fading_cache[key] = (bucket, value)
        return value

    # ------------------------------------------------------------- transmit
    def _compute_rx_map(self, src: int, tx_power: float, bucket: int) -> Dict[int, float]:
        """Received power (dBm) per audible neighbour of ``src``.

        The fading cache lookup is inlined (one dict probe on the
        precomputed link key) and the zero-fading case (``bucket == -1``)
        skips it entirely — fading_db() would return 0.0 and ``x + 0.0`` is
        bit-identical for every power that can reach the deaf threshold.
        """
        rx_map: Dict[int, float] = {}
        link_faults = self.link_faults
        deaf = self.deaf_threshold_dbm
        if bucket >= 0:
            fading_cache = self._fading_cache
            for neighbor_id, gain, fkey in self._audible.get(src, ()):
                cached = fading_cache.get(fkey)
                if cached is not None and cached[0] == bucket:
                    rx_power = tx_power + gain + cached[1]
                else:
                    rx_power = tx_power + gain + self._fading_miss(fkey, bucket)
                if link_faults:
                    rx_power -= link_faults.get(fkey, 0.0)
                if rx_power >= deaf:
                    rx_map[neighbor_id] = rx_power
        else:
            for neighbor_id, gain, fkey in self._audible.get(src, ()):
                rx_power = tx_power + gain
                if link_faults:
                    rx_power -= link_faults.get(fkey, 0.0)
                if rx_power >= deaf:
                    rx_map[neighbor_id] = rx_power
        return rx_map

    def start_transmission(
        self, radio: Radio, frame: Frame, done: Optional[Callable[[], None]]
    ) -> None:
        """Put a frame on the air from ``radio``."""
        length = frame.length
        airtime = self._airtimes.get(length)
        if airtime is None:
            airtime = self._airtimes[length] = self.profile.packet_airtime(length)
        now = self.sim.now
        src = radio.node_id
        tx_end = now + airtime
        # Received power per neighbour is constant within one fading bucket
        # (and one link-fault epoch, one tx power), so the audible loop is
        # memoised per source: every cache hit reuses the exact floats the
        # loop would recompute. The map is shared read-only.
        tx_power = radio.tx_power_dbm
        bucket = now // self.fading_coherence if self.fading_sigma_db > 0.0 else -1
        epoch = self._fault_epoch
        pending_map = self._pending
        cached_rx = self._rx_cache.get(src)
        if (
            cached_rx is not None
            and cached_rx[0] == bucket
            and cached_rx[1] == tx_power
            and cached_rx[2] == epoch
        ):
            rx_map = cached_rx[3]
            lockable = cached_rx[4]
        else:
            rx_map = self._compute_rx_map(src, tx_power, bucket)
            sensitivity = self._sensitivity
            lockable = [rid for rid, power in rx_map.items() if power >= sensitivity]
            self._rx_cache[src] = (bucket, tx_power, epoch, rx_map, lockable)
        tx = _Transmission(src, frame, now, tx_end, rx_map)
        # Account this new packet as interference against the in-flight
        # receptions it reaches. Each reception owns its accumulator, so the
        # (set) order across receptions cannot change a float.
        for receiver_id in pending_map.keys() & rx_map.keys():
            pending = pending_map[receiver_id]
            end = pending.end
            overlap = (end if end < tx_end else tx_end) - now
            if overlap > 0:
                pending.interference_mw_ticks += (
                    10.0 ** (rx_map[receiver_id] / 10.0) * overlap
                )
        # Lock idle receivers onto it, in rx-map order (the order
        # _end_transmission resolves them, drawing the channel RNG).
        radios = self._radios
        locked = tx.locked
        for receiver_id in lockable:
            receiver = radios.get(receiver_id)
            if receiver is None:
                continue  # position known but no radio attached
            if receiver.state is IDLE and receiver_id not in pending_map:
                receiver.state = RECEIVING
                reception = _PendingReception(tx_end, rx_map[receiver_id])
                pending_map[receiver_id] = reception
                locked.append((receiver_id, reception))
        # Pre-existing overlapping transmissions interfere with this packet's
        # receivers too; fold their remaining overlap in now. Iterating the
        # just-built lock list keeps the per-reception accumulation order
        # exactly as before (outer: _active order; inner: lock order).
        if locked:
            for other in self._active:
                end = other.end
                overlap = (end if end < tx_end else tx_end) - now
                if overlap <= 0:
                    continue
                other_rx = other.rx_power_dbm
                for receiver_id, reception in locked:
                    other_power = other_rx.get(receiver_id)
                    if other_power is not None:
                        reception.interference_mw_ticks += (
                            10.0 ** (other_power / 10.0) * overlap
                        )
        self._active.append(tx)
        self.sim.schedule(airtime, self._end_transmission, tx, radio, done)

    def _end_transmission(
        self, tx: _Transmission, radio: Radio, done: Optional[Callable[[], None]]
    ) -> None:
        self._active.remove(tx)
        radio.finish_tx()
        airtime = tx.end - tx.start
        # Resolve receptions locked onto this transmission. tx.locked holds
        # exactly the receivers that locked on, in the order the historical
        # full-pending scan would visit them — so the noise samples and the
        # shared channel-RNG PRR draws happen in the identical sequence —
        # without walking every unrelated in-flight reception. The noise,
        # interferer and dBm arithmetic is energy_dbm_at's, with the same
        # float grouping.
        pending_map = self._pending
        radios = self._radios
        noise = self._noise
        interferers = self._interferers
        prr_of = self._prr
        rng_random = self._rng.random
        frame = tx.frame
        for receiver_id, reception in tx.locked:
            if pending_map.get(receiver_id) is not reception:
                continue  # receiver powered off (and possibly re-locked) mid-air
            del pending_map[receiver_id]
            receiver = radios.get(receiver_id)
            if receiver is None or receiver.state is not RECEIVING:
                continue
            receiver.state = IDLE
            noise_mw = 10.0 ** (noise[receiver_id].sample() / 10.0)
            if interferers:
                extra_mw = 0.0
                for interferer in interferers:
                    dbm = interferer.interference_dbm_at(receiver_id)
                    if dbm is not None:
                        extra_mw += 10.0 ** (dbm / 10.0)
                noise_mw += extra_mw
            if airtime > 0:
                noise_mw += reception.interference_mw_ticks / airtime
            rx_power = reception.rx_power_dbm
            sinr_db = rx_power - (-200.0 if noise_mw <= 0.0 else 10.0 * log10(noise_mw))
            prr = prr_of(sinr_db, frame.length)
            if rng_random() < prr:
                if self.reception_filters and not self._reception_allowed(
                    tx.src, receiver_id, frame
                ):
                    continue
                receiver.deliver(frame, rx_power)
                for observer in self.delivery_observers:
                    observer(receiver_id, frame, rx_power)
        if done is not None:
            done()

    # ------------------------------------------------------------ fault hooks
    def _reception_allowed(self, src: int, dst: int, frame: Frame) -> bool:
        for reception_filter in self.reception_filters:
            if not reception_filter(src, dst, frame):
                return False
        return True

    def set_link_fault(self, a: int, b: int, attenuation_db: Optional[float]) -> None:
        """Add (or with ``None``, clear) extra attenuation on link ``a``–``b``."""
        key = (a, b) if a <= b else (b, a)
        if attenuation_db is None:
            self.link_faults.pop(key, None)
        else:
            self.link_faults[key] = attenuation_db
        # Invalidate every memoised per-source power map: fault attenuation
        # is folded into the cached powers.
        self._fault_epoch += 1

    # ------------------------------------------------------------- mobility
    def move_node(self, node_id: int, new_pos: Tuple[float, float]) -> None:
        """Relocate a node: recompute its links, drop stale caches.

        The sparse gain entries (or, in dense mode, the full gain row), the
        audible rows of every old and new neighbour, and — via the epoch
        bump — every memoised per-source rx-power map are refreshed, so no
        packet is ever priced with pre-move powers. Per-link shadowing stays
        pinned to the node pair (it models the environment between two
        endpoints, and keeping it stable is what makes moves reproducible).

        Dense channels need ``positions`` and ``propagation`` at
        construction; the row recompute is O(N) per move but uses the exact
        scalar gains the spatial path produces, so both modes expose
        identical audible state after the same move sequence.
        """
        spatial = self._spatial
        if spatial is None:
            self._move_node_dense(node_id, new_pos)
            return
        old_neighbors = {entry[0] for entry in self._audible.get(node_id, ())}
        for b in old_neighbors:
            del self.gains[(node_id, b)]
            del self.gains[(b, node_id)]
        spatial.index.move(node_id, new_pos)
        pos = spatial.index._positions
        pos_a = pos[node_id]
        link_gain_db = spatial.propagation.link_gain_db
        new_neighbors: Set[int] = set()
        for b in spatial.candidates(node_id):
            gain = link_gain_db(node_id, b, pos_a, pos[b])
            if gain >= self._audible_floor:
                # Gains are symmetric (distance + unordered-pair shadowing).
                self.gains[(node_id, b)] = gain
                self.gains[(b, node_id)] = gain
                new_neighbors.add(b)
        self._rebuild_audible_row(node_id, new_neighbors)
        for b in old_neighbors | new_neighbors:
            self._rebuild_audible_row(b, {node_id})
        self._fault_epoch += 1

    def _move_node_dense(self, node_id: int, new_pos: Tuple[float, float]) -> None:
        """Dense-mode move: recompute the node's full gain row from geometry.

        Dense channels materialise *every* pair (including sub-audible ones,
        matching ``gain_matrix``), so the whole row is refreshed — each gain
        is the same scalar ``link_gain_db`` call the spatial path makes,
        which is what keeps the two modes bit-identical under mobility. The
        patch is routed through :meth:`update_link_gains` so audible rows
        and the rx-cache epoch follow automatically.
        """
        if self._positions is None or self._propagation is None:
            raise ValueError(
                "dense move_node needs positions= and propagation= at channel "
                "construction (or use a spatial index); callers without a "
                "geometry model patch links with update_link_gains"
            )
        pos = self._positions
        if not (0 <= node_id < len(pos)):
            raise ValueError(f"unknown node {node_id}")
        pos_a = (float(new_pos[0]), float(new_pos[1]))
        pos[node_id] = pos_a
        link_gain_db = self._propagation.link_gain_db
        updates: Dict[Tuple[int, int], Optional[float]] = {}
        for b in range(len(pos)):
            if b == node_id:
                continue
            # Gains are symmetric (distance + unordered-pair shadowing).
            gain = link_gain_db(node_id, b, pos_a, pos[b])
            updates[(node_id, b)] = gain
            updates[(b, node_id)] = gain
        self.update_link_gains(updates)

    def update_link_gains(
        self, updates: Dict[Tuple[int, int], Optional[float]]
    ) -> None:
        """Patch per-directed-link gains in place (``None`` removes a link).

        The dense-mode counterpart of :meth:`move_node`: audible rows of
        every touched source are rebuilt and the epoch bump invalidates all
        memoised rx-power maps.
        """
        touched: Dict[int, Set[int]] = {}
        for (a, b), gain in updates.items():
            if gain is None:
                self.gains.pop((a, b), None)
            else:
                self.gains[(a, b)] = gain
            touched.setdefault(a, set()).add(b)
        for a, ids in touched.items():
            self._rebuild_audible_row(a, ids)
        self._fault_epoch += 1

    # --------------------------------------------------------------- queries
    def link_gain(self, src: int, dst: int) -> Optional[float]:
        """Static gain in dB from ``src`` to ``dst``, or None if out of range.

        In spatial mode only audible-pair gains are materialised; pairs
        inside the culling radius but below the audible floor are computed
        on demand so the query answers exactly what the dense map would.
        """
        gain = self.gains.get((src, dst))
        if gain is None and self._spatial is not None and src != dst:
            return self._spatial.link_gain(src, dst)
        return gain

    def audible_neighbors(self, node_id: int) -> List[int]:
        """Nodes that can hear ``node_id`` at all (static, power-agnostic)."""
        return [entry[0] for entry in self._audible.get(node_id, ())]

    def expected_prr(self, src: int, dst: int, frame_bytes: int = 40) -> float:
        """Clean-channel PRR estimate for a link (no interference), for tests."""
        gain = self.link_gain(src, dst)
        if gain is None:
            return 0.0
        radio = self._radios.get(src)
        tx_power = radio.tx_power_dbm if radio is not None else 0.0
        snr_db = (tx_power + gain) - self.profile.noise_floor_dbm
        if tx_power + gain < self._sensitivity:
            return 0.0
        return self._prr(snr_db, frame_bytes)
