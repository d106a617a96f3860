"""The remote controller's global view of the network.

In the paper's architecture (Figure 1) nodes report their path codes to a
remote data centre; the network manager uses that global view to address
control packets and — for the destination-unreachable countermeasure — to
pick a neighbour of the destination "with different path code to the
greatest extent" and a good link (§III-C4: "as a controller of a deployed
sensor network, the local topology information of each node is necessary and
likely known").

Two ways of feeding the view are provided:

- **reported** — nodes periodically send ``COLLECT_CODE_REPORT`` data packets
  up the tree; :meth:`report_code` ingests them. This is the paper's path.
- **oracle snapshot** — :meth:`snapshot` reads codes and neighbourhoods
  straight out of the simulation. Experiments use this for speed; it stands
  in for a fully converged reporting phase and is documented as a
  substitution in DESIGN.md/EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.pathcode import PathCode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.protocol import TeleAdjusting
    from repro.radio.channel import Channel


class Controller:
    """Global code registry plus helper selection for Re-Tele."""

    #: Minimum clean-channel PRR for a helper's last hop to the destination.
    MIN_HELPER_PRR = 0.7

    def __init__(self, channel: Optional["Channel"] = None) -> None:
        self.channel = channel
        self._codes: Dict[int, PathCode] = {}
        #: Physical neighbourhood (node -> audible neighbours); filled by
        #: :meth:`snapshot` or :meth:`set_neighbors`.
        self._neighbors: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------ feed
    def report_code(self, node: int, code: PathCode) -> None:
        """Ingest one code report (paper path: data packets up the tree)."""
        self._codes[node] = code

    def set_neighbors(self, node: int, neighbors: List[int]) -> None:
        """Record a node's physical neighbour list."""
        self._neighbors[node] = list(neighbors)

    def snapshot(self, protocols: Dict[int, "TeleAdjusting"]) -> int:
        """Oracle: read every node's current code and audible neighbourhood.

        Returns the number of nodes with a code.
        """
        count = 0
        for node_id, protocol in protocols.items():
            code = protocol.allocation.code
            if code is not None:
                self._codes[node_id] = code
                count += 1
            if self.channel is not None:
                self._neighbors[node_id] = self.channel.audible_neighbors(node_id)
        return count

    # --------------------------------------------------------------- queries
    def code_of(self, node: int) -> Optional[PathCode]:
        """The neighbour's current code, or None."""
        return self._codes.get(node)

    def decode_path(self, code: PathCode) -> List[Tuple[int, PathCode]]:
        """Reconstruct the relay sequence implicitly encoded in ``code``.

        §III-B1: "all its upstream relaying nodes are implicitly encoded" —
        every strict prefix of a node's code that is itself some node's code
        names one upstream relay. Returns ``[(node, prefix_code), …]`` from
        the sink down to the code's owner, for every prefix the registry can
        resolve (gaps appear when an intermediate node never reported).
        """
        by_code: Dict[PathCode, int] = {c: n for n, c in self._codes.items()}
        path: List[Tuple[int, PathCode]] = []
        for length in range(1, code.length + 1):
            prefix = code.prefix(length)
            node = by_code.get(prefix)
            if node is not None:
                path.append((node, prefix))
        return path

    def pick_helper(
        self, destination: int, avoid_code: PathCode
    ) -> Optional[Tuple[int, PathCode]]:
        """Neighbour of ``destination`` whose code differs the most (§III-C4).

        "Differs the most" = minimal common prefix with ``avoid_code`` (the
        blocked encoded path); ties break toward better last-hop link quality
        when the channel is known, then toward shorter codes (nearer the sink).
        """
        neighbors = self._neighbors.get(destination, [])
        best: Optional[Tuple[int, PathCode]] = None
        best_key: Optional[Tuple[int, float, int]] = None
        for neighbor in neighbors:
            if neighbor == destination:
                continue
            code = self._codes.get(neighbor)
            if code is None:
                continue
            if self.channel is not None:
                prr = self.channel.expected_prr(neighbor, destination)
                if prr < self.MIN_HELPER_PRR:
                    continue
            else:
                prr = 1.0
            shared = code.common_prefix_length(avoid_code)
            key = (shared, -prr, code.length)
            if best_key is None or key < best_key:
                best_key = key
                best = (neighbor, code)
        return best
