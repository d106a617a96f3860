"""System-level integration tests: determinism, dynamics, full scenarios."""

import pytest

import repro
from repro.experiments.harness import Network, NetworkConfig
from repro.topology import random_uniform
from repro.topology.analysis import link_graph


def sink_side(graph, sink, skip=None):
    """Nodes the sink reaches over ``graph`` without passing through ``skip``."""
    seen = {sink}
    frontier = [sink]
    while frontier:
        node = frontier.pop()
        for neighbor in graph[node]:
            if neighbor != skip and neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def run_small_scenario(seed: int):
    """A compact end-to-end run returning comparable outcome tuples."""
    deployment = random_uniform(n=12, width=45, height=45, seed=7)
    net = Network(
        NetworkConfig(
            topology=deployment, seed=seed, always_on=True, collection_ipi=None
        )
    )
    net.converge(max_seconds=150)
    outcomes = []
    for destination in net.non_sink_nodes()[:4]:
        record = net.send_control(destination, payload=destination)
        net.run(20)
        outcomes.append(
            (
                destination,
                record.delivered,
                record.delivered_at,
                record.athx,
            )
        )
    codes = tuple(
        str(net.protocols[n].allocation.code) for n in sorted(net.stacks)
    )
    return tuple(outcomes), codes


class TestDeterminism:
    def test_same_seed_reproduces_exactly(self):
        first = run_small_scenario(seed=11)
        second = run_small_scenario(seed=11)
        assert first == second

    def test_different_seed_differs(self):
        a = run_small_scenario(seed=11)
        b = run_small_scenario(seed=12)
        # Codes or outcomes must differ somewhere (different RNG streams).
        assert a != b


class TestDynamics:
    def test_node_failure_reroutes_collection(self):
        deployment = random_uniform(n=14, width=50, height=50, seed=9)
        net = Network(
            NetworkConfig(
                topology=deployment, seed=9, always_on=True, collection_ipi=None
            )
        )
        net.converge(max_seconds=150)
        # Fail a relay whose loss strands no node from the sink, and check
        # the network re-coded.
        graph = link_graph(deployment, min_prr=0.5)
        reached = sink_side(graph, deployment.sink)
        relays = [
            n
            for n in net.non_sink_nodes()
            if net.stacks[n].routing.children
            and sink_side(graph, deployment.sink, skip=n) == reached - {n}
        ]
        if not relays:
            pytest.skip("no safe relay to fail in this topology")
        victim = relays[0]
        orphans = list(net.stacks[victim].routing.children)
        net.stacks[victim].radio.fail()
        net.run(400)
        for orphan in orphans:
            stack = net.stacks[orphan]
            if not stack.routing.has_route:
                continue  # genuinely partitioned
            assert stack.routing.parent != victim

    def test_codes_follow_reparenting(self):
        deployment = random_uniform(n=10, width=40, height=40, seed=13)
        net = Network(
            NetworkConfig(
                topology=deployment, seed=13, always_on=True, collection_ipi=None
            )
        )
        net.converge(max_seconds=150)
        # Whatever the dynamics, the invariant holds: every coded node's
        # current code extends its allocation parent's current code, or the
        # node is mid-repair (code None).
        net.run(100)
        for node in net.non_sink_nodes():
            allocation = net.protocols[node].allocation
            if allocation.code is None or allocation._position_parent is None:
                continue
            parent_alloc = net.protocols[allocation._position_parent].allocation
            if parent_alloc.code is None:
                continue
            # Parent's code (current or retained old) must prefix ours.
            prefixes = [
                c
                for c in parent_alloc.current_codes()
                if c.is_prefix_of(allocation.code)
            ]
            stale_parent = parent_alloc.code_changes > 0
            assert prefixes or stale_parent, (node, allocation.code)


class TestCrossProtocolSanity:
    @pytest.mark.parametrize("protocol", ["tele", "drip", "rpl", "orpl"])
    def test_each_protocol_delivers_on_small_network(self, protocol):
        deployment = random_uniform(n=10, width=40, height=40, seed=21)
        net = Network(
            NetworkConfig(
                topology=deployment,
                protocol=protocol,
                seed=21,
                always_on=True,
                collection_ipi=None,
            )
        )
        net.converge(max_seconds=200)
        destination = max(
            net.non_sink_nodes(), key=lambda n: net.stacks[n].routing.hop_count
        )
        record = net.send_control(destination, payload="ping")
        net.run(60)
        assert record.delivered, protocol

    def test_duty_cycled_delivery(self):
        # The full LPL path (not always-on) still delivers.
        net = repro.build_network(topology="indoor-testbed", seed=5)
        net.converge(max_seconds=240)
        destination = next(
            n
            for n in net.non_sink_nodes()
            if 2 <= net.stacks[n].routing.hop_count <= 4
            and net.protocols[n].path_code is not None
        )
        record = net.send_control(destination, payload="lpl")
        net.run(60)
        assert record.delivered
        assert record.latency_s < 30.0
