"""Dynamics interacting with the extensions: multicast under failures,
controller edge cases, simulator run() contracts."""

import pytest

from repro.core import Controller, TeleAdjusting
from repro.core.pathcode import PathCode
from repro.net import NodeStack
from repro.radio.channel import Channel
from repro.radio.noise import ConstantNoise
from repro.radio.propagation import LogDistancePathLoss
from repro.sim import SECOND, Simulator


def build_tree(seed=1):
    positions = [
        (0.0, 0.0),
        (12.0, 8.0),
        (12.0, -8.0),
        (24.0, 12.0),
        (24.0, 6.0),
        (24.0, -14.0),
    ]
    sim = Simulator(seed=seed)
    gains = LogDistancePathLoss(pl_d0=40.0, seed=seed, shadowing_sigma=0.0).gain_matrix(
        positions
    )
    channel = Channel(sim, gains, noise_model=ConstantNoise())
    controller = Controller(channel=channel)
    protocols, stacks = {}, {}
    for i in range(len(positions)):
        stack = NodeStack(sim, channel, i, is_root=(i == 0), always_on=True)
        protocols[i] = TeleAdjusting(sim, stack, controller=controller)
        stacks[i] = stack
    for i in range(len(positions)):
        stacks[i].start()
        protocols[i].start()
    sim.run(until=120 * SECOND)
    controller.snapshot(protocols)
    return sim, stacks, protocols, controller


class TestMulticastUnderFailure:
    def test_dead_member_missing_but_rest_covered(self):
        sim, stacks, protocols, controller = build_tree()
        prefix = protocols[1].allocation.code
        members = {
            n
            for n, p in protocols.items()
            if p.allocation.code is not None and prefix.is_prefix_of(p.allocation.code)
        }
        dead = max(members - {1})
        stacks[dead].radio.fail()
        applied = set()
        for n, p in protocols.items():
            p.forwarding.on_apply = lambda payload, me=n: applied.add(me)
        protocols[0].forwarding.send_multicast(prefix, payload="x")
        sim.run(until=sim.now + 40 * SECOND)
        assert dead not in applied
        assert applied >= (members - {dead})

    def test_multicast_to_leaf_prefix_is_a_singleton(self):
        sim, stacks, protocols, controller = build_tree()
        leaf = 5
        prefix = protocols[leaf].allocation.code
        applied = []
        for n, p in protocols.items():
            p.forwarding.on_apply = lambda payload, me=n: applied.append(me)
        protocols[0].forwarding.send_multicast(prefix, payload="solo")
        sim.run(until=sim.now + 30 * SECOND)
        assert set(applied) == {leaf}


class TestControllerEdgeCases:
    def test_snapshot_counts_only_coded(self):
        controller = Controller()
        count = controller.snapshot({})
        assert count == 0

    def test_helper_skips_destination_itself(self):
        controller = Controller()
        controller.set_neighbors(5, [5, 7])
        controller.report_code(5, PathCode.from_bits("0011"))
        controller.report_code(7, PathCode.from_bits("0101"))
        helper = controller.pick_helper(5, avoid_code=PathCode.from_bits("0011"))
        assert helper is not None and helper[0] == 7

    def test_helper_respects_link_quality_gate(self):
        sim, stacks, protocols, controller = build_tree()
        # Node 3's physical neighbours include far nodes below MIN_HELPER_PRR;
        # whatever helper is chosen must have a usable last hop.
        helper = controller.pick_helper(
            3, avoid_code=protocols[3].allocation.code
        )
        if helper is not None:
            from repro.radio.channel import Channel as _C

            prr = protocols[0].stack.mac.radio.channel.expected_prr(helper[0], 3)
            assert prr >= controller.MIN_HELPER_PRR


class TestSimulatorRunContracts:
    def test_run_until_is_resumable(self):
        sim = Simulator(seed=1)
        hits = []
        for t in (10, 20, 30):
            sim.schedule(t, hits.append, t)
        sim.run(until=15)
        assert hits == [10]
        sim.run(until=100)
        assert hits == [10, 20, 30]

    def test_max_events_leaves_queue_intact(self):
        sim = Simulator(seed=1)
        hits = []
        for t in (1, 2, 3):
            sim.schedule(t, hits.append, t)
        sim.run(max_events=2)
        assert hits == [1, 2]
        sim.run()
        assert hits == [1, 2, 3]

    def test_pending_events_upper_bound(self):
        sim = Simulator(seed=1)
        events = [sim.schedule(10, lambda: None) for _ in range(5)]
        assert sim.pending_events() == 5
        sim.cancel(events[0])
        assert sim.pending_events() == 4
