"""Tests for energy accounting, topology analysis, and diagnostics."""

import pytest

from repro.radio.energy import (
    RX_CURRENT_MA,
    SLEEP_CURRENT_MA,
    energy_report,
    network_energy,
    tx_current_ma,
)
from repro.sim import MINUTE, SECOND, Simulator
from repro.sim.units import from_seconds
from repro.topology import indoor_testbed, tight_grid
from repro.topology.analysis import hop_counts, unreachable_nodes


class TestTxCurrent:
    def test_anchors(self):
        assert tx_current_ma(0.0) == 17.4
        assert tx_current_ma(-25.0) == 8.5

    def test_interpolation_monotone(self):
        previous = 0.0
        for dbm in range(-25, 1):
            current = tx_current_ma(float(dbm))
            assert current >= previous
            previous = current

    def test_extremes_clamp(self):
        assert tx_current_ma(5.0) == 17.4
        assert tx_current_ma(-40.0) == 8.5


class TestEnergyReport:
    def _radio(self, on_seconds=10.0, tx_count=0):
        from repro.radio.channel import Channel
        from repro.radio.noise import ConstantNoise
        from repro.radio.propagation import LogDistancePathLoss
        from repro.radio.radio import Radio

        sim = Simulator(seed=1)
        gains = LogDistancePathLoss().gain_matrix([(0, 0), (5, 0)])
        channel = Channel(sim, gains, noise_model=ConstantNoise())
        radio = Radio(sim, channel, 0)
        radio.turn_on()
        sim.schedule(from_seconds(on_seconds), radio.turn_off)
        sim.schedule(from_seconds(100.0), lambda: None)
        sim.run()
        radio.tx_count = tx_count
        return radio

    def test_sleeping_node_draws_sleep_current(self):
        radio = self._radio(on_seconds=0.001)
        report = energy_report(radio, from_seconds(100.0))
        assert report.average_current_ma == pytest.approx(SLEEP_CURRENT_MA, rel=0.5)

    def test_always_listening_draws_rx_current(self):
        radio = self._radio(on_seconds=100.0)
        report = energy_report(radio, from_seconds(100.0))
        assert report.average_current_ma == pytest.approx(RX_CURRENT_MA, rel=0.05)

    def test_duty_cycle_drives_charge(self):
        lazy = energy_report(self._radio(on_seconds=1.0), from_seconds(100.0))
        busy = energy_report(self._radio(on_seconds=50.0), from_seconds(100.0))
        assert busy.charge_mc > lazy.charge_mc * 10
        assert busy.duty_cycle == pytest.approx(0.5, rel=0.01)

    def test_tx_time_reconstruction(self):
        radio = self._radio(on_seconds=10.0, tx_count=100)
        report = energy_report(radio, from_seconds(100.0), average_frame_bytes=40)
        assert report.tx_time_s > 0
        assert report.tx_time_s <= report.on_time_s

    def test_lifetime_projection(self):
        radio = self._radio(on_seconds=1.0)
        report = energy_report(radio, from_seconds(100.0))
        days = report.lifetime_days(battery_mah=2600.0)
        assert days > 100  # ~1 % duty cycle lasts months

    def test_invalid_interval(self):
        radio = self._radio()
        with pytest.raises(ValueError):
            energy_report(radio, 0)

    def test_network_energy_keys(self):
        radio = self._radio()
        reports = network_energy({0: radio}, from_seconds(10.0))
        assert set(reports) == {0}


class TestTopologyAnalysis:
    def test_tight_grid_depth_is_moderate(self):
        deployment = tight_grid(seed=1)
        depth = max(hop_counts(deployment, min_prr=0.5).values())
        assert 3 <= depth <= 12

    def test_hop_counts_start_at_sink(self):
        deployment = indoor_testbed(seed=1)
        counts = hop_counts(deployment, min_prr=0.3)
        assert counts[deployment.sink] == 0
        assert max(counts.values()) >= 3

    def test_unreachable_nodes_empty_when_connected(self):
        deployment = indoor_testbed(seed=1)
        assert unreachable_nodes(deployment, min_prr=0.3) == []


class TestTrafficMonitor:
    def _monitor(self, ipi=60 * SECOND):
        from repro.core.diagnostics import TrafficMonitor

        sim = Simulator(seed=1)
        return sim, TrafficMonitor(sim, expected_ipi=ipi)

    def test_normal_rate_no_anomaly(self):
        sim, monitor = self._monitor()
        for t in range(0, 600, 60):
            sim.schedule(from_seconds(t), monitor.record, 7)
        sim.run()
        assert monitor.anomalies() == []

    def test_storm_detected(self):
        sim, monitor = self._monitor()
        for t in range(0, 180, 5):  # 12/min where 1/min expected
            sim.schedule(from_seconds(t), monitor.record, 7)
        sim.run()
        anomalies = monitor.anomalies()
        assert anomalies and anomalies[0].kind == "storm"
        assert anomalies[0].node == 7
        assert "storm" in anomalies[0].describe()

    def test_silence_detected(self):
        sim, monitor = self._monitor()
        sim.schedule(from_seconds(1), monitor.record, 9)
        sim.schedule(from_seconds(600), lambda: None)  # 10 min of nothing
        sim.run()
        anomalies = monitor.anomalies()
        assert anomalies and anomalies[0].kind == "silence"

    def test_rate_computation(self):
        sim, monitor = self._monitor(ipi=10 * SECOND)
        for t in range(0, 30, 10):
            sim.schedule(from_seconds(t), monitor.record, 3)
        sim.run()
        assert monitor.rate(3) == pytest.approx(0.1, rel=0.5)

    def test_invalid_ipi(self):
        from repro.core.diagnostics import TrafficMonitor

        with pytest.raises(ValueError):
            TrafficMonitor(Simulator(), expected_ipi=0)


class TestAdjustmentPlanner:
    def test_storm_maps_to_ipi_reset(self):
        from repro.core.diagnostics import AdjustmentPlanner, Anomaly

        sim = Simulator(seed=1)
        sent = []
        planner = AdjustmentPlanner(
            sim, send=lambda dest, payload: sent.append((dest, payload)),
            default_ipi=2 * MINUTE,
        )
        storm = Anomaly(node=4, kind="storm", observed_rate=1.0, expected_rate=0.01, detected_at=0)
        silence = Anomaly(node=5, kind="silence", observed_rate=0.0, expected_rate=0.01, detected_at=0)
        batch = planner.dispatch([storm, silence])
        assert len(batch) == 2
        assert sent[0] == (4, {"set_ipi_s": 120.0})
        assert sent[1] == (5, {"request_status": True})
        assert planner.history == batch
