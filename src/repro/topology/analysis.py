"""Topology analysis helpers (usable-link adjacency, hop counts, repair).

Deployments can be sanity-checked *before* spending simulation time: which
links clear a PRR threshold, how many hops each node sits from the sink,
and which nodes are stranded. The city-scale generators use
:func:`unreachable_nodes` to repair their layouts.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.radio.profiles import RadioProfile, get_radio_profile
from repro.topology.deployments import Deployment


def link_graph(
    deployment: Deployment,
    min_prr: float = 0.5,
    frame_bytes: int = 40,
    profile: Optional[RadioProfile] = None,
) -> Dict[int, List[int]]:
    """Undirected adjacency (node → neighbours) of links with PRR ≥ ``min_prr``.

    PRR is computed from the deployment's propagation model, each node's
    transmit power, and the radio profile's sensitivity/noise/PRR curve
    (default: CC2420) — exactly like
    :meth:`repro.radio.channel.Channel.expected_prr` but without building a
    simulator. Every node has an entry, isolated ones an empty list.
    """
    if profile is None:
        profile = get_radio_profile(None)
    graph: Dict[int, List[int]] = {node: [] for node in range(deployment.size)}
    pairs: Iterable[Tuple[int, int, float]]
    if deployment.size > 512:
        # City scale: all-pairs gains are O(N²) memory. Links below the radio
        # sensitivity can never carry a usable PRR, so price only the pairs
        # that could clear it (grid-hash culling with the standard shadowing
        # margin), each once — the resulting graph is identical.
        from repro.radio.spatial import SpatialChannel

        max_tx = max(
            [deployment.tx_power_dbm, *deployment.tx_power_overrides.values()]
        )
        pairs = SpatialChannel(
            deployment.positions,
            deployment.propagation,
            cull_floor_dbm=profile.sensitivity_dbm - max_tx,
        ).pair_gains()
    else:
        pairs = (
            (a, b, gain) for (a, b), gain in deployment.gains().items() if a < b
        )
    # Gains are symmetric, so one float prices both directions.
    for a, b, gain in pairs:
        power_ab = deployment.node_tx_power(a) + gain
        power_ba = deployment.node_tx_power(b) + gain
        rx = min(power_ab, power_ba)
        if rx < profile.sensitivity_dbm:
            continue
        snr = rx - profile.noise_floor_dbm
        if profile.prr(snr, frame_bytes) >= min_prr:
            graph[a].append(b)
            graph[b].append(a)
    return graph


def hop_counts(
    deployment: Deployment,
    min_prr: float = 0.5,
    profile: Optional[RadioProfile] = None,
) -> Dict[int, int]:
    """Shortest-path hop count from each node to the sink (graph distance).

    Nodes disconnected at ``min_prr`` are absent from the result. This is
    the lower bound the CTP tree converges toward on clean channels.
    """
    graph = link_graph(deployment, min_prr, profile=profile)
    counts = {deployment.sink: 0}
    frontier = deque([deployment.sink])
    while frontier:
        node = frontier.popleft()
        hops = counts[node] + 1
        for neighbor in graph[node]:
            if neighbor not in counts:
                counts[neighbor] = hops
                frontier.append(neighbor)
    return counts


def unreachable_nodes(
    deployment: Deployment,
    min_prr: float = 0.5,
    profile: Optional[RadioProfile] = None,
) -> List[int]:
    """Nodes with no usable path to the sink at this PRR threshold."""
    reachable = hop_counts(deployment, min_prr, profile=profile)
    return sorted(set(range(deployment.size)) - set(reachable))
