"""CPM-style noise model over a synthetic heavy-tailed trace.

The paper uses TOSSIM's CPM (Closest-Pattern Matching, Lee/Cerpa/Levis,
IPSN'07) noise model trained on the ``meyer-heavy.txt`` trace. That trace is
a recording from Stanford's Meyer library and is not redistributable here, so
we substitute a **synthetic trace with the same qualitative statistics**:
a quiet floor near -98 dBm with small Gaussian jitter, punctuated by bursty
WiFi-like interference excursions (geometric burst lengths, levels drawn up
to roughly -50 dBm). Burstiness is the property that drives link dynamics —
the behaviour the paper's evaluation leans on — and it is preserved.

The CPM algorithm itself is implemented faithfully in miniature: readings are
quantised to bins; for each observed history of ``history`` quantised
readings we learn the empirical distribution of the next reading; at
simulation time we sample from the distribution keyed by the most recent
history, falling back to shorter histories (and finally the marginal
distribution) when a pattern was never observed.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Protocol, Sequence, Tuple


class NoiseModel(Protocol):
    """Ambient-noise source the channel forks per node and draws from."""

    def sample(self) -> float:
        """Draw the next noise reading in dBm."""

    def fork(self, seed: int) -> "NoiseModel":
        """Per-node copy with an independent random stream."""


def synthesize_meyer_like_trace(
    length: int = 20_000,
    seed: int = 0,
    floor_dbm: float = -98.0,
    floor_sigma: float = 1.5,
    burst_probability: float = 0.01,
    burst_continue: float = 0.75,
    burst_levels: Sequence[float] = (-90.0, -85.0, -80.0, -72.0, -65.0, -55.0),
) -> List[float]:
    """Generate a bursty noise trace (one reading per millisecond, in dBm).

    The generator is a two-state process: in the *quiet* state readings are
    ``floor_dbm + N(0, floor_sigma)``; with probability ``burst_probability``
    it enters a *burst* whose level is drawn from ``burst_levels`` (biased
    toward the lower levels) and whose duration is geometric with continue
    probability ``burst_continue`` — matching the heavy-tailed, clustered
    interference seen in meyer-heavy.
    """
    if length <= 0:
        raise ValueError("trace length must be positive")
    rng = random.Random(seed)
    trace: List[float] = []
    in_burst = False
    burst_level = floor_dbm
    for _ in range(length):
        if in_burst:
            if rng.random() >= burst_continue:
                in_burst = False
        if not in_burst and rng.random() < burst_probability:
            in_burst = True
            # Bias toward weaker bursts: pick two, keep the weaker most times.
            a, b = rng.choice(burst_levels), rng.choice(burst_levels)
            burst_level = min(a, b) if rng.random() < 0.7 else max(a, b)
        if in_burst:
            trace.append(burst_level + rng.gauss(0.0, 2.0))
        else:
            trace.append(floor_dbm + rng.gauss(0.0, floor_sigma))
    return trace


class CPMNoiseModel:
    """Closest-pattern-matching noise generator.

    One instance is trained per simulation and then *forked* per node with
    :meth:`fork`, giving each node an independent but statistically identical
    noise process (TOSSIM trains one model and seeds it per node the same
    way).
    """

    def __init__(
        self,
        trace_dbm: Sequence[float],
        history: int = 4,
        bin_width_db: float = 2.0,
        seed: int = 0,
    ) -> None:
        if history < 1:
            raise ValueError("history must be >= 1")
        if bin_width_db <= 0:
            raise ValueError("bin width must be positive")
        if len(trace_dbm) <= history:
            raise ValueError("trace shorter than history window")
        self.history = history
        self.bin_width_db = bin_width_db
        self._rng = random.Random(seed)
        # Tables: for each history length h in [1, history], map the tuple of
        # the last h bins to the list of observed next readings.
        self._tables: List[Dict[Tuple[int, ...], List[float]]] = [
            defaultdict(list) for _ in range(history)
        ]
        self._marginal: List[float] = list(trace_dbm)
        self._train(trace_dbm)
        # Draw table: per history state, the candidate list the fallback walk
        # settles on, with its length and bit length. Entries are pure
        # functions of the trained tables, which never change after training,
        # so nothing invalidates them; every fork shares this one memo.
        self._draws: Dict[Tuple[int, ...], Tuple[List[float], int, int]] = {}
        # Model state is the quantised history window, maintained incrementally
        # as a tuple so sample() never re-bins the whole window.
        self._state_bins: Tuple[int, ...] = tuple(
            self._bin(x) for x in trace_dbm[:history]
        )

    def _bin(self, dbm: float) -> int:
        return int(dbm // self.bin_width_db)

    def _train(self, trace: Sequence[float]) -> None:
        bin_width = self.bin_width_db
        bins = [int(x // bin_width) for x in trace]
        for i in range(self.history, len(trace)):
            nxt = trace[i]
            for h in range(1, self.history + 1):
                key = tuple(bins[i - h : i])
                self._tables[h - 1][key].append(nxt)

    def fork(self, seed: int) -> "CPMNoiseModel":
        """Cheap per-node copy sharing the trained tables, with its own RNG."""
        clone = object.__new__(CPMNoiseModel)
        clone.history = self.history
        clone.bin_width_db = self.bin_width_db
        clone._rng = random.Random(seed)
        clone._tables = self._tables
        clone._marginal = self._marginal
        clone._draws = self._draws
        start = clone._rng.randrange(len(self._marginal) - self.history)
        clone._state_bins = tuple(
            clone._bin(x) for x in self._marginal[start : start + self.history]
        )
        return clone

    def sample(self) -> float:
        """Draw the next noise reading (dBm) and advance the model state.

        The candidate list comes from the draw table (one dict probe; the
        fallback walk runs once per history state). The index is drawn with
        ``Random.choice``'s own rejection loop over ``getrandbits`` (the same
        bits, so the same element on every CPython 3.10–3.12), without
        choice's two call layers on this per-reception and per-CCA path.
        """
        bins = self._state_bins
        draw = self._draws.get(bins)
        if draw is None:
            draw = self._draw_entry(bins)
        candidates, n, k = draw
        getrandbits = self._rng.getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        value = candidates[r]
        self._state_bins = bins[1:] + (int(value // self.bin_width_db),)
        return value

    def _draw_entry(self, bins: Tuple[int, ...]) -> Tuple[List[float], int, int]:
        """Fill the draw-table entry of one history state.

        The longest observed suffix of the history wins, falling back to
        shorter histories and finally to the marginal distribution.
        """
        tables = self._tables
        history = self.history
        candidates = self._marginal
        for h in range(history, 0, -1):
            matched = tables[h - 1].get(bins[history - h :])
            if matched:
                candidates = matched
                break
        n = len(candidates)
        draw = self._draws[bins] = (candidates, n, n.bit_length())
        return draw


class ConstantNoise:
    """Trivial noise model for unit tests: always the same floor."""

    def __init__(self, dbm: float = -98.0) -> None:
        self.dbm = dbm

    def fork(self, seed: int) -> "ConstantNoise":
        """Per-node copy with an independent random stream."""
        return self

    def sample(self) -> float:
        """Draw the next noise reading in dBm."""
        return self.dbm
