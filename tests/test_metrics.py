"""Tests for the metrics layer."""

import pytest

from repro.metrics.control import ControlMetrics, ControlRecord
from repro.metrics.stats import mean, percentile
from repro.sim.units import SECOND


def record(index=0, hop=2, sent=0, delivered=None, acked=None, athx=None):
    r = ControlRecord(
        index=index, destination=10 + index, hop_count=hop, sent_at=sent
    )
    r.delivered_at = delivered
    r.acked_at = acked
    r.athx = athx
    return r


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) is None

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 50.0) == 5.0
        assert percentile([1.0], 90.0) == 1.0
        assert percentile([], 50.0) is None

    def test_percentile_bounds(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 3.0
        with pytest.raises(ValueError):
            percentile(values, 101.0)


class TestControlRecord:
    def test_latency_and_rtt(self):
        r = record(sent=1 * SECOND, delivered=2 * SECOND, acked=3 * SECOND)
        assert r.delivered
        assert r.latency_s == pytest.approx(1.0)
        assert r.rtt_s == pytest.approx(2.0)

    def test_undelivered(self):
        r = record()
        assert not r.delivered
        assert r.latency_s is None
        assert r.rtt_s is None


class TestControlMetrics:
    def _filled(self):
        m = ControlMetrics()
        m.add(record(0, hop=1, sent=0, delivered=SECOND, athx=1))
        m.add(record(1, hop=1, sent=0))
        m.add(record(2, hop=3, sent=0, delivered=2 * SECOND, athx=2))
        m.add(record(3, hop=3, sent=0, delivered=4 * SECOND, athx=4))
        return m

    def test_pdr(self):
        m = self._filled()
        assert m.pdr() == pytest.approx(0.75)
        assert ControlMetrics().pdr() is None

    def test_pdr_by_hop(self):
        m = self._filled()
        assert m.pdr_by_hop() == {1: 0.5, 3: 1.0}

    def test_latency_by_hop(self):
        m = self._filled()
        by_hop = m.latency_by_hop()
        assert by_hop[1] == pytest.approx(1.0)
        assert by_hop[3] == pytest.approx(3.0)

    def test_athx_samples_and_ratio(self):
        m = self._filled()
        assert sorted(m.athx_samples()) == [(1, 1), (3, 2), (3, 4)]
        # ratios: 1/1, 2/3, 4/3 → mean = 1.0
        assert m.mean_athx_ratio() == pytest.approx(1.0)

    def test_mean_latency(self):
        m = self._filled()
        assert m.mean_latency() == pytest.approx((1.0 + 2.0 + 4.0) / 3)


class TestNetworkMetrics:
    def test_duty_cycle_and_tx_deltas(self):
        from repro.metrics.network import NetworkMetrics
        from repro.net import NodeStack
        from repro.radio.channel import Channel
        from repro.radio.frame import FrameType
        from repro.radio.noise import ConstantNoise
        from repro.radio.propagation import LogDistancePathLoss
        from repro.sim import Simulator

        sim = Simulator(seed=1)
        gains = LogDistancePathLoss(pl_d0=40.0, seed=1, shadowing_sigma=0.0).gain_matrix(
            [(0.0, 0.0), (10.0, 0.0)]
        )
        channel = Channel(sim, gains, noise_model=ConstantNoise())
        stacks = {
            0: NodeStack(sim, channel, 0, is_root=True),
            1: NodeStack(sim, channel, 1),
        }
        for s in stacks.values():
            s.start()
        metrics = NetworkMetrics(sim, stacks)
        sim.run(until=30 * SECOND)
        metrics.mark()
        beacons_at_mark = metrics.tx_since_mark()
        assert beacons_at_mark == 0
        sim.run(until=60 * SECOND)
        assert metrics.tx_since_mark() >= 0
        duty = metrics.duty_cycles()
        assert 0 not in duty  # root excluded by default
        assert 0.0 <= duty[1] <= 1.0
        with_root = metrics.duty_cycles(include_root=True)
        assert with_root[0] == pytest.approx(1.0)

    def test_tx_per_control_packet_guard(self):
        from repro.metrics.network import NetworkMetrics
        from repro.sim import Simulator

        metrics = NetworkMetrics(Simulator(), {})
        assert metrics.tx_per_control_packet(0) is None
