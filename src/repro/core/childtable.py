"""The child-node table (paper Table I) and position bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set


@dataclass
class ChildEntry:
    """One row of Table I: a child, its position, and the confirmation flag."""

    child: int
    position: int
    confirmed: bool = False
    allocated_at: int = 0
    #: Last tick the parent heard any evidence of this child (routing or
    #: TeleAdjusting beacon, confirmation). Drives code-space reclamation:
    #: a child silent past the reclaim TTL is presumed dead and its
    #: position is freed for newcomers.
    last_heard: int = 0


class SpaceExhausted(RuntimeError):
    """No free position and the space cannot grow further."""


class ChildTable:
    """Positions a parent has allocated to its children.

    Positions live in ``[1, 2**space_bits)``; position 0 is never allocated
    so a child's suffix is always distinguishable from "no position" and the
    parent's own code is never equal to a child's (the paper likewise starts
    allocation from position 1 — e.g. codes ``001``, ``010`` under ``0``).
    """

    MAX_SPACE_BITS = 15

    def __init__(self) -> None:
        self.space_bits = 0  # 0 = not yet sized (Algorithm 1 not run)
        self._entries: Dict[int, ChildEntry] = {}

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, child: int) -> bool:
        return child in self._entries

    def entry(self, child: int) -> Optional[ChildEntry]:
        """The entry for one key, or None."""
        return self._entries.get(child)

    def entries(self) -> List[ChildEntry]:
        """All current entries as a list."""
        return list(self._entries.values())

    def used_positions(self) -> Set[int]:
        """The set of positions currently allocated."""
        return {entry.position for entry in self._entries.values()}

    def capacity(self) -> int:
        """Allocatable positions at the current space size (position 0 excluded)."""
        if self.space_bits == 0:
            return 0
        return (1 << self.space_bits) - 1

    def has_free_position(self) -> bool:
        """True when another child can be allocated."""
        return len(self._entries) < self.capacity()

    # ------------------------------------------------------------ allocation
    @staticmethod
    def required_space_bits(n_children: int, reserve_cap: int = 10) -> int:
        """Algorithm 1 lines 1–6: size the space for ``n_children`` plus slack.

        The paper computes ``χ = N + [10, N/2]`` — a reserve for "potential
        hidden child nodes" between ``N/2`` and 10 — then the smallest ``π``
        with ``2**π ≥ χ``. We read the bracket as ``min(10, max(1, ceil(N/2)))``
        and additionally lose one pattern to the never-allocated position 0.
        """
        n = max(n_children, 1)
        reserve = min(reserve_cap, max(1, (n + 1) // 2))
        chi = n + reserve + 1  # +1 for the reserved position 0
        bits = 1
        while (1 << bits) < chi:
            bits += 1
        return bits

    def size_space(self, expected_children: int, now: int = 0) -> int:
        """Initial sizing (Algorithm 1). Returns the chosen space width."""
        if self.space_bits == 0:
            self.space_bits = self.required_space_bits(expected_children)
        return self.space_bits

    def _next_free(self) -> int:
        used = self.used_positions()
        for position in range(1, 1 << self.space_bits):
            if position not in used:
                return position
        raise SpaceExhausted(f"no free position in {self.space_bits}-bit space")

    def allocate(self, child: int, now: int = 0) -> ChildEntry:
        """Deterministically allocate a free position to ``child``.

        Re-allocation of an existing child returns its current entry; the
        space is extended first when full (paper §III-B6). Callers must
        notify children after an extension.
        """
        existing = self._entries.get(child)
        if existing is not None:
            return existing
        if self.space_bits == 0:
            self.space_bits = self.required_space_bits(1)
        if not self.has_free_position():
            self.extend_space()
        entry = ChildEntry(
            child=child, position=self._next_free(), allocated_at=now, last_heard=now
        )
        self._entries[child] = entry
        return entry

    def extend_space(self) -> int:
        """Grow the space by one bit, keeping all positions (paper §III-B6)."""
        if self.space_bits >= self.MAX_SPACE_BITS:
            raise SpaceExhausted(f"space already at {self.space_bits} bits")
        if self.space_bits == 0:
            self.space_bits = 1
        self.space_bits += 1
        return self.space_bits

    def confirm(self, child: int, position: int) -> bool:
        """Algorithm 2, consistent case: flag the entry confirmed.

        Returns True when ``(child, position)`` matched the table.
        """
        entry = self._entries.get(child)
        if entry is None or entry.position != position:
            return False
        entry.confirmed = True
        return True

    def reallocate(self, child: int, now: int = 0) -> ChildEntry:
        """Algorithm 2, mismatch case: give ``child`` a fresh position."""
        self._entries.pop(child, None)
        return self.allocate(child, now)

    def remove(self, child: int) -> None:
        """Remove the entry (no-op when absent)."""
        self._entries.pop(child, None)
