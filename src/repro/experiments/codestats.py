"""Path-code construction statistics: Figure 6 and Table II analyses."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro.core.protocol import TeleAdjusting
from repro.experiments.harness import Network, NetworkConfig
from repro.protocols import TeleProtocolAdapter


def construction_budget(topology: str) -> float:
    """Simulated seconds a construction run may take to converge.

    400 s for the 225-node Figure 6 fields; the 40-node indoor testbed
    (Table II) gets the 240 s the comparison runs give the same field.
    """
    return 240.0 if topology == "indoor-testbed" else 400.0


def construction_config(topology: str, seed: int) -> NetworkConfig:
    """The :class:`NetworkConfig` a construction run converges.

    Matches the paper's Figure 6 setup: code construction rides on CTP with
    512 ms beacon rounds. Radios run always-on here (the TOSSIM simulations
    measure the construction process, not duty cycling), which keeps 225-node
    fields tractable.
    """
    return NetworkConfig(
        topology=topology,
        protocol="tele",
        seed=seed,
        always_on=True,
        collection_ipi=None,
        # TOSSIM's per-link gains are static: the paper's Figure 6 runs
        # see CPM noise but no fading. Matching that keeps the deep
        # Sparse-linear chains from churning mid-construction.
        fading_sigma_db=0.0,
    )


def code_construction_run(
    topology: str = "tight-grid",
    seed: int = 0,
    max_seconds: Optional[float] = None,
    target: float = 0.99,
) -> Network:
    """Build and converge a TeleAdjusting network for code statistics.

    ``max_seconds`` defaults to the topology's :func:`construction_budget`.
    """
    if max_seconds is None:
        max_seconds = construction_budget(topology)
    net = Network(construction_config(topology, seed))
    net.converge(max_seconds=max_seconds, target=target)
    return net


def construction_stats(net: Network) -> Dict[str, Any]:
    """A converged network's Figure 6 / Table II statistics, JSON-ready.

    The by-hop groupings are ``[hop, values]`` pairs and the reverse-hop
    samples ``[ctp_hops, reverse_hops]`` pairs, so every hop count stays an
    integer through JSON; ``dict(stats["code_length_by_hop"])`` restores
    the :func:`code_length_by_hop` mapping.
    """
    return {
        "topology": net.config.topology,
        "seed": net.config.seed,
        "code_length_by_hop": [[h, v] for h, v in code_length_by_hop(net).items()],
        "children_by_hop": [[h, v] for h, v in children_by_hop(net).items()],
        "convergence_beacons": convergence_beacons(net),
        "reverse_hops": [list(sample) for sample in reverse_hop_counts(net)],
        "events_executed": net.sim.events_executed,
    }


def _tele(net: Network, node_id: int) -> TeleAdjusting:
    adapter = net.protocols[node_id]
    assert isinstance(adapter, TeleProtocolAdapter)
    return adapter.engine


def code_length_by_hop(net: Network) -> Dict[int, List[int]]:
    """Figure 6(a) / Table II: valid path-code length grouped by CTP hop count."""
    grouped: Dict[int, List[int]] = defaultdict(list)
    for node_id in net.stacks:
        tele = _tele(net, node_id)
        if tele.allocation.code is None:
            continue
        hop = net.stacks[node_id].routing.hop_count
        grouped[hop].append(tele.allocation.code.length)
    return dict(sorted(grouped.items()))


def children_by_hop(net: Network) -> Dict[int, List[int]]:
    """Figure 6(b): number of allocated children per node, by hop count."""
    grouped: Dict[int, List[int]] = defaultdict(list)
    for node_id in net.stacks:
        tele = _tele(net, node_id)
        hop = net.stacks[node_id].routing.hop_count
        grouped[hop].append(len(tele.allocation.children))
    return dict(sorted(grouped.items()))


def convergence_beacons(net: Network) -> List[float]:
    """Figure 6(c): beacon rounds from the routing-found trigger to a code."""
    out: List[float] = []
    for node_id in net.stacks:
        if node_id == net.sink:
            continue
        beacons = _tele(net, node_id).allocation.beacons_to_converge()
        if beacons is not None:
            out.append(beacons)
    return out


def reverse_hop_counts(net: Network) -> List[Tuple[int, int]]:
    """Figure 6(d): (CTP hop count, reverse/downward hop count) per node.

    The reverse hop count is the depth in the *allocation* tree — the chain
    of parents that handed out positions, i.e. the encoded path — which can
    differ from the current CTP parent chain because codes are not re-issued
    on every routing change.
    """
    samples: List[Tuple[int, int]] = []
    for node_id in net.stacks:
        if node_id == net.sink:
            continue
        depth = _allocation_depth(net, node_id)
        if depth is None:
            continue
        ctp_hop = net.stacks[node_id].routing.hop_count
        samples.append((ctp_hop, depth))
    return samples


def _allocation_depth(net: Network, node_id: int, limit: int = 128) -> Optional[int]:
    depth = 0
    current = node_id
    seen = set()
    while current != net.sink:
        if current in seen or depth > limit:
            return None
        seen.add(current)
        allocation = _tele(net, current).allocation
        parent = allocation._position_parent
        if parent is None:
            return None
        current = parent
        depth += 1
    return depth


def mean_reverse_ratio(samples: List[Tuple[int, int]]) -> Optional[float]:
    """The paper's headline: avg reverse hops / avg CTP hops ≈ 1.08."""
    ctp = [h for h, _ in samples if h > 0]
    reverse = [r for h, r in samples if h > 0]
    if not ctp:
        return None
    return (sum(reverse) / len(reverse)) / (sum(ctp) / len(ctp))
