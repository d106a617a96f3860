"""Grid-hash spatial index: O(local density) channel dispatch at city scale.

Everything in the simulator used to be O(N) per transmission because link
gains were materialised for *all* N² ordered pairs and the channel walked
every receiver. At 10k nodes that is 10⁸ dict entries — gigabytes of memory
before the first packet flies. This module keeps channel work proportional
to *local density* instead:

- :class:`GridIndex` hashes node positions into square cells; a range query
  inspects only the cells overlapping the query disc, so candidate receivers
  for a transmission are found in O(density), not O(N).
- :func:`interference_range_m` converts a configurable *interference floor*
  (dBm) into the culling radius: beyond it a receiver cannot clear the floor
  even with the maximum transmit power plus a ``shadow_sigma_multiple``·σ
  shadowing boost, so it is culled before any per-receiver SNR work.
- :class:`SpatialChannel` bundles the index with the culling radius and
  exact per-pair gain queries; :class:`~repro.radio.channel.Channel` accepts
  one in place of a dense gain dict and derives *identical* audible-neighbour
  lists from it.
- :meth:`SpatialChannel.pair_gains` prices each unordered candidate pair
  once, with the dense ``gain_matrix`` float and an unmemoised shadowing
  draw; the channel's audible rows and the repair's link graph read it, so
  a city-scale build keeps no draw per candidate pair.

Bit-identity discipline
-----------------------
The squared-distance prefilter is used **only for culling decisions**,
guarded by a margin, never for a value that enters the simulation. Gains,
fading, and noise stay on the same scalar ``math``/``random`` code paths as
the brute-force walk, so a run with the index enabled is event-for-event
identical to one without it: the index changes *which pairs are even
considered*, and the interference floor plus the shadowing margin guarantee
the considered set is a superset of every pair that could matter.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.radio.propagation import LogDistancePathLoss

Position = Tuple[float, float]

#: Default shadowing margin, in standard deviations, folded into the culling
#: radius. Per-link shadowing is Gaussian and therefore unbounded, but a
#: link needs a > 6σ boost (probability ≈ 1e-9) to clear the floor from
#: beyond the culled radius; at that point the draw is indistinguishable
#: from an RNG bug. Raise it if you run with extreme shadowing sigmas.
DEFAULT_SHADOW_SIGMA_MULTIPLE = 6.0

@dataclass(frozen=True)
class SpatialIndexParams:
    """Configuration of the spatial culling stage (cache-key honest).

    ``interference_floor_dbm`` is the received power below which a link is
    culled before per-receiver SNR work; it defaults to the channel's deaf
    threshold, so by default culling removes only links the channel would
    have discarded anyway (raising it is an explicit approximation and a
    distinct experiment fingerprint). ``cell_size_m`` defaults to the
    derived culling radius, so a range query touches at most 3×3 cells.
    """

    interference_floor_dbm: float = -110.0
    shadow_sigma_multiple: float = DEFAULT_SHADOW_SIGMA_MULTIPLE
    cell_size_m: Optional[float] = None

    def to_dict(self) -> Dict[str, Optional[float]]:
        """Canonical JSON-ready form (sorted keys) for config fingerprints."""
        return {
            "cell_size_m": self.cell_size_m,
            "interference_floor_dbm": self.interference_floor_dbm,
            "shadow_sigma_multiple": self.shadow_sigma_multiple,
        }


class GridIndex:
    """Uniform grid hash over 2-D node positions.

    Cells are ``cell_size`` × ``cell_size`` squares keyed by
    ``(floor(x / cell_size), floor(y / cell_size))``. A query for nodes
    within ``radius`` of a point inspects the cells intersecting the disc's
    bounding square, which makes the result a *superset* of the true disc —
    callers refine with an exact predicate (see :class:`SpatialChannel`).
    """

    def __init__(self, positions: Sequence[Position], cell_size: float) -> None:
        if not (cell_size > 0):
            raise ValueError("cell size must be positive")
        self.cell_size = float(cell_size)
        self._positions: List[Position] = [(float(x), float(y)) for x, y in positions]
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        for node_id, pos in enumerate(self._positions):
            self._cells.setdefault(self._cell_of(pos), []).append(node_id)

    def __len__(self) -> int:
        return len(self._positions)

    def _cell_of(self, pos: Position) -> Tuple[int, int]:
        return (
            int(math.floor(pos[0] / self.cell_size)),
            int(math.floor(pos[1] / self.cell_size)),
        )

    def move(self, node_id: int, new_pos: Position) -> None:
        """Re-home a node into its new cell (the mobility seam)."""
        old_cell = self._cell_of(self._positions[node_id])
        new_pos = (float(new_pos[0]), float(new_pos[1]))
        self._positions[node_id] = new_pos
        new_cell = self._cell_of(new_pos)
        if new_cell == old_cell:
            return
        members = self._cells[old_cell]
        members.remove(node_id)
        if not members:
            del self._cells[old_cell]
        self._cells.setdefault(new_cell, []).append(node_id)

    def candidates_within(self, center: Position, radius: float) -> List[int]:
        """Node ids in every cell overlapping the disc (ascending, superset).

        The result contains every node within ``radius`` of ``center`` and
        possibly nearby extras (cell granularity); it never misses one.
        """
        if radius < 0:
            return []
        # The bounding box gets the same 1e-12 relative cushion as the
        # callers' squared-distance refinement: ``math.dist`` rounds, so a
        # point a sub-ulp outside the exact disc can still compare
        # ``<= radius`` — it must not be lost to an off-by-one cell row.
        radius = radius * (1.0 + 1e-12)
        cs = self.cell_size
        min_cx = int(math.floor((center[0] - radius) / cs))
        max_cx = int(math.floor((center[0] + radius) / cs))
        min_cy = int(math.floor((center[1] - radius) / cs))
        max_cy = int(math.floor((center[1] + radius) / cs))
        cells = self._cells
        out: List[int] = []
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                members = cells.get((cx, cy))
                if members:
                    out.extend(members)
        out.sort()
        return out

    def neighbors_of(self, node_id: int, radius: float) -> List[int]:
        """Candidate neighbours of one node (ascending, superset, no self)."""
        out = self.candidates_within(self._positions[node_id], radius)
        # ids are sorted; drop self without a second pass over the list.
        i = bisect.bisect_left(out, node_id)
        if i < len(out) and out[i] == node_id:
            out.pop(i)
        return out


def interference_range_m(
    propagation: LogDistancePathLoss,
    max_tx_power_dbm: float,
    interference_floor_dbm: float,
    shadow_sigma_multiple: float = DEFAULT_SHADOW_SIGMA_MULTIPLE,
) -> float:
    """Distance beyond which no receiver can clear the interference floor.

    Solves ``max_tx − PL(d) + margin = floor`` for ``d`` where the margin is
    ``shadow_sigma_multiple · shadowing_sigma``. Inside this radius a link
    *might* matter; outside it cannot, even with the most favourable
    plausible shadowing draw.
    """
    margin = shadow_sigma_multiple * propagation.shadowing_sigma
    budget = max_tx_power_dbm + margin - interference_floor_dbm
    return propagation.max_range_m(budget)


def _capped_radius(radius: float, positions: Sequence[Position]) -> float:
    """Cap an unbounded (or field-spanning) culling radius at the field size.

    A non-positive path-loss exponent makes :func:`interference_range_m`
    return infinity; capping at the diagonal keeps the grid query finite and
    degenerates gracefully — every pair is a candidate, matching the dense
    result exactly.
    """
    if not positions:
        return 1.0 if math.isinf(radius) else radius
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    diagonal = math.hypot(max(xs) - min(xs), max(ys) - min(ys)) + 1.0
    return min(radius, diagonal)


class SpatialChannel:
    """A grid index plus the culling radius for one channel's gain floor.

    ``cull_floor_dbm`` is a *gain* threshold (dB, tx-power already folded in
    by the caller): pairs whose realized gain could reach it are inside the
    culling radius, everything else is skipped. For a
    :class:`~repro.radio.channel.Channel` the caller passes the channel's
    audible floor (``interference_floor − 3·fading_sigma``), making the
    candidate set a superset of every audible pair up to the
    ``shadow_sigma_multiple``·σ shadowing margin.

    Gain queries (:meth:`link_gain`, :meth:`pair_gains`) are exact scalar
    calls into the shared :class:`LogDistancePathLoss`; the squared-distance
    predicate, one form in every method, only prefilters candidates.
    """

    def __init__(
        self,
        positions: Sequence[Position],
        propagation: LogDistancePathLoss,
        cull_floor_dbm: float = -110.0,
        shadow_sigma_multiple: float = DEFAULT_SHADOW_SIGMA_MULTIPLE,
        cell_size_m: Optional[float] = None,
    ) -> None:
        self.propagation = propagation
        self.cull_floor_dbm = float(cull_floor_dbm)
        self.shadow_sigma_multiple = float(shadow_sigma_multiple)
        radius = interference_range_m(
            propagation, 0.0, self.cull_floor_dbm, self.shadow_sigma_multiple
        )
        self.radius = _capped_radius(radius, positions)
        self.index = GridIndex(
            positions, cell_size=cell_size_m or max(self.radius, propagation.d0)
        )
        # Cushioned squared radius for the distance filters: anything kept is
        # still gain-tested exactly, so the 1e-12 relative cushion (absorbing
        # any last-ulp disagreement between the squared form and math.dist)
        # only costs a few extra candidates, never correctness.
        self._r2 = (self.radius * (1.0 + 1e-12)) ** 2

    def __len__(self) -> int:
        return len(self.index)

    def candidates(self, node_id: int) -> List[int]:
        """Ids within the culling radius of ``node_id`` (ascending, no self).

        Grid cells give a superset; the squared-distance predicate trims it.
        """
        cand = self.index.neighbors_of(node_id, self.radius)
        pos = self.index._positions
        ax, ay = pos[node_id]
        r2 = self._r2
        out = []
        for b in cand:
            bx, by = pos[b]
            dx = bx - ax
            dy = by - ay
            if dx * dx + dy * dy <= r2:
                out.append(b)
        return out

    def pair_gains(self) -> Iterator[Tuple[int, int, float]]:
        """Each unordered candidate pair once: ``(a, b, gain)``, ``a < b`` ascending.

        Candidacy is symmetric (``bx - ax`` is exactly ``-(ax - bx)``), so
        this is the upper half of :meth:`candidates`. ``gain`` is the float
        ``link_gain_db`` gives either direction, from an unmemoised draw.
        """
        pos = self.index._positions
        pair_gain_db = self.propagation.pair_gain_db
        for a, pos_a in enumerate(pos):
            cand = self.candidates(a)
            for b in cand[bisect.bisect_right(cand, a):]:
                yield a, b, pair_gain_db(a, b, pos_a, pos[b])

    def link_gain(self, a: int, b: int) -> Optional[float]:
        """Exact gain for a pair inside the culling radius, else None."""
        pos = self.index._positions
        (ax, ay), (bx, by) = pos[a], pos[b]
        dx = bx - ax
        dy = by - ay
        if dx * dx + dy * dy <= self._r2:
            return self.propagation.link_gain_db(a, b, pos[a], pos[b])
        return None

