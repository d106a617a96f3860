"""Log-distance path-loss propagation with static shadowing.

The paper computes TOSSIM link gains "using the Log Distance Path Loss model
with a path exponent of four, to approximate challenging signal propagation
environments". We implement the same model:

    PL(d) = PL(d0) + 10 * n * log10(d / d0) + X_sigma

where ``X_sigma`` is a zero-mean Gaussian drawn once per (unordered) node
pair, so links are static but heterogeneous, and gains are symmetric — the
same convention TOSSIM's topology generators use.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Sequence, Tuple

Position = Tuple[float, float]


class LogDistancePathLoss:
    """Computes per-link gains from node positions.

    Parameters mirror the common TOSSIM topology-generation script:

    - ``path_loss_exponent``: 4.0 in the paper (harsh environment).
    - ``pl_d0``: path loss at the reference distance ``d0`` (dB).
    - ``shadowing_sigma``: std-dev of static per-link shadowing (dB).
    """

    def __init__(
        self,
        path_loss_exponent: float = 4.0,
        pl_d0: float = 55.0,
        d0: float = 1.0,
        shadowing_sigma: float = 3.2,
        seed: int = 0,
    ) -> None:
        if d0 <= 0:
            raise ValueError("reference distance d0 must be positive")
        self.path_loss_exponent = path_loss_exponent
        self.pl_d0 = pl_d0
        self.d0 = d0
        self.shadowing_sigma = shadowing_sigma
        self._seed = seed
        self._shadowing: Dict[Tuple[int, int], float] = {}

    def to_dict(self) -> Dict[str, float]:
        """Canonical JSON-ready parameters (used for experiment cache keys)."""
        return {
            "d0": self.d0,
            "path_loss_exponent": self.path_loss_exponent,
            "pl_d0": self.pl_d0,
            "seed": self._seed,
            "shadowing_sigma": self.shadowing_sigma,
        }

    def _draw_shadowing_db(self, lo: int, hi: int) -> float:
        # Stable per-link RNG so gain(a,b) does not depend on query order.
        rng = random.Random((self._seed << 32) ^ (lo << 16) ^ hi)
        return rng.gauss(0.0, self.shadowing_sigma)

    def _shadowing_db(self, a: int, b: int) -> float:
        key = (a, b) if a <= b else (b, a)
        value = self._shadowing.get(key)
        if value is None:
            value = self._shadowing[key] = self._draw_shadowing_db(*key)
        return value

    def path_loss_db(self, distance: float) -> float:
        """Deterministic (pre-shadowing) path loss in dB at ``distance`` metres."""
        d = max(distance, self.d0)
        return self.pl_d0 + 10.0 * self.path_loss_exponent * math.log10(d / self.d0)

    def max_range_m(self, budget_db: float) -> float:
        """Largest distance whose deterministic path loss fits ``budget_db``.

        Inverse of :meth:`path_loss_db`: the culling radius for a link
        budget of ``tx_power − floor (+ margins)`` dB. At or below the
        reference path loss the range collapses to ``d0``; a non-positive
        exponent (free-space-degenerate configs in tests) means no distance
        attenuates, so the range is unbounded.
        """
        if budget_db <= self.pl_d0:
            return self.d0
        if self.path_loss_exponent <= 0:
            return math.inf
        return self.d0 * 10.0 ** ((budget_db - self.pl_d0) / (10.0 * self.path_loss_exponent))

    def link_gain_db(
        self, a: int, b: int, pos_a: Position, pos_b: Position
    ) -> float:
        """Channel gain (negative dB) from node ``a`` to node ``b``.

        Received power = tx power (dBm) + gain (dB).
        """
        distance = math.dist(pos_a, pos_b)
        return -(self.path_loss_db(distance) + self._shadowing_db(a, b))

    def pair_gain_db(
        self, lo: int, hi: int, pos_lo: Position, pos_hi: Position
    ) -> float:
        """:meth:`link_gain_db` of the pair ``lo < hi``, its draw not memoised."""
        distance = math.dist(pos_lo, pos_hi)
        return -(self.path_loss_db(distance) + self._draw_shadowing_db(lo, hi))

    def gain_matrix(
        self, positions: Sequence[Position]
    ) -> Dict[Tuple[int, int], float]:
        """All-pairs gains for nodes ``0..len(positions)-1`` (both directions).

        Row-major order; ``(a, b)`` with ``a > b`` copies its symmetric mirror.
        """
        gains: Dict[Tuple[int, int], float] = {}
        n = len(positions)
        for a in range(n):
            pos_a = positions[a]
            for b in range(n):
                if b < a:
                    gains[(a, b)] = gains[(b, a)]
                elif b > a:
                    gains[(a, b)] = self.link_gain_db(a, b, pos_a, positions[b])
        return gains
