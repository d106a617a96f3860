"""Edge-case coverage: CSMA, queueing, THL caps, capture, route pull."""

import pytest

from repro.mac import LPLMac, MacParams
from repro.net import NodeStack
from repro.net.messages import COLLECT_APP_DATA, NO_ROUTE
from repro.radio.channel import Channel
from repro.radio.frame import BROADCAST, Frame, FrameType
from repro.radio.noise import ConstantNoise
from repro.radio.propagation import LogDistancePathLoss
from repro.radio.radio import Radio
from repro.sim import MILLISECOND, SECOND, Simulator


def make_channel(positions, seed=1, noise=None):
    sim = Simulator(seed=seed)
    gains = LogDistancePathLoss(pl_d0=40.0, seed=seed, shadowing_sigma=0.0).gain_matrix(
        positions
    )
    channel = Channel(sim, gains, noise_model=noise or ConstantNoise())
    return sim, channel


class TestCsma:
    def test_busy_channel_fails_after_backoffs(self):
        # A loud constant noise floor above the CCA threshold jams the channel.
        sim, channel = make_channel(
            [(0.0, 0.0), (8.0, 0.0)], noise=ConstantNoise(-60.0)
        )
        a = LPLMac(sim, Radio(sim, channel, 0), always_on=True)
        a.start()
        results = []
        sim.schedule(
            0,
            lambda: a.send(
                Frame(src=0, dst=1, type=FrameType.DATA, length=40), results.append
            ),
        )
        sim.run(until=5 * SECOND)
        assert results and not results[0].ok
        assert results[0].reason == "busy"

    def test_queue_is_fifo(self):
        sim, channel = make_channel([(0.0, 0.0), (8.0, 0.0)])
        a = LPLMac(sim, Radio(sim, channel, 0), always_on=True)
        b = LPLMac(sim, Radio(sim, channel, 1), always_on=True)
        order = []
        b.receive_handler = lambda frame, rssi: order.append(frame.payload)
        a.start()
        b.start()
        for i in range(4):
            a.send(Frame(src=0, dst=1, type=FrameType.DATA, payload=i, length=30))
        sim.run(until=10 * SECOND)
        assert order == [0, 1, 2, 3]

    def test_dedup_cache_eviction_allows_old_frames_again(self):
        params = MacParams(dedup_cache=2)
        sim, channel = make_channel([(0.0, 0.0), (8.0, 0.0)])
        a = LPLMac(sim, Radio(sim, channel, 0), params=params, always_on=True)
        b = LPLMac(sim, Radio(sim, channel, 1), params=params, always_on=True)
        received = []
        b.receive_handler = lambda frame, rssi: received.append(frame.frame_id)
        a.start()
        b.start()
        sticky = Frame(src=0, dst=BROADCAST, type=FrameType.ROUTING_BEACON, length=30)
        a.send(sticky)
        sim.run(until=2 * SECOND)
        for _ in range(3):  # push the sticky frame out of the tiny cache
            a.send(Frame(src=0, dst=BROADCAST, type=FrameType.ROUTING_BEACON, length=30))
            sim.run(until=sim.now + 2 * SECOND)
        a.send(sticky.clone())  # same logical beacon, new frame id
        sim.run(until=sim.now + 2 * SECOND)
        assert len(received) == 5


class TestCtpEdges:
    def _line(self, n=3, spacing=12.0, seed=1):
        sim, channel = make_channel([(i * spacing, 0.0) for i in range(n)], seed=seed)
        stacks = [
            NodeStack(sim, channel, i, is_root=(i == 0), always_on=True)
            for i in range(n)
        ]
        for s in stacks:
            s.start()
        return sim, stacks

    def test_thl_cap_drops_looping_packets(self):
        sim, stacks = self._line(n=2)
        sim.run(until=30 * SECOND)
        from repro.net.messages import DataPacket

        looped = DataPacket(
            origin=1,
            origin_seqno=1,
            collect_id=COLLECT_APP_DATA,
            thl=stacks[1].forwarding.MAX_THL,
        )
        frame = Frame(src=1, dst=1, type=FrameType.DATA, payload=looped, length=50)
        before = stacks[1].forwarding.packets_dropped
        stacks[1].forwarding.data_received(frame)
        assert stacks[1].forwarding.packets_dropped == before + 1

    def test_routeless_node_advertises_no_route(self):
        sim, channel = make_channel([(0.0, 0.0), (12.0, 0.0)])
        lonely = NodeStack(sim, channel, 1, is_root=False, always_on=True)
        lonely.start()  # no root anywhere
        sim.run(until=10 * SECOND)
        assert lonely.routing.path_etx >= NO_ROUTE

    def test_parent_unreachable_triggers_reroute_evaluation(self):
        sim, stacks = self._line(n=3)
        sim.run(until=60 * SECOND)
        assert stacks[2].routing.parent == 1
        stacks[2].routing.parent_unreachable()
        assert stacks[2].routing.parent != 1 or stacks[2].routing.parent is None

    def test_total_transmissions_counter(self):
        sim, stacks = self._line(n=2)
        sim.run(until=30 * SECOND)
        assert sum(stacks[0].tx_by_type.values()) >= 1
        assert FrameType.ROUTING_BEACON in stacks[0].tx_by_type


class TestCapture:
    def test_much_stronger_signal_survives_weak_interference(self):
        # Receiver adjacent to the wanted transmitter, interferer far away.
        sim, channel = make_channel([(0.0, 0.0), (3.0, 0.0), (30.0, 0.0)])
        wanted = Radio(sim, channel, 0)
        receiver = Radio(sim, channel, 1)
        interferer = Radio(sim, channel, 2)
        got = []
        receiver.on_receive = lambda frame, rssi: got.append(frame.src)
        for radio in (wanted, receiver, interferer):
            radio.turn_on()
        wanted.transmit(Frame(src=0, dst=1, type=FrameType.DATA, length=60))
        interferer.transmit(Frame(src=2, dst=1, type=FrameType.WIFI, length=60))
        sim.run(until=1 * SECOND)
        assert got == [0]  # ~31 dB SIR: clean capture

    def test_ongoing_reception_locks_out_later_frame(self):
        sim, channel = make_channel([(0.0, 0.0), (6.0, 0.0), (12.0, 0.0)])
        first = Radio(sim, channel, 0)
        receiver = Radio(sim, channel, 1)
        second = Radio(sim, channel, 2)
        got = []
        receiver.on_receive = lambda frame, rssi: got.append(frame.src)
        for radio in (first, receiver, second):
            radio.turn_on()
        first.transmit(Frame(src=0, dst=1, type=FrameType.DATA, length=120))
        # Second frame starts mid-reception; the receiver stays locked on the
        # first (which, at 6 m vs 6 m, now fails on SINR) and never decodes
        # the second.
        sim.schedule(1 * MILLISECOND, lambda: second.transmit(
            Frame(src=2, dst=1, type=FrameType.DATA, length=30)
        ))
        sim.run(until=1 * SECOND)
        assert 2 not in got
