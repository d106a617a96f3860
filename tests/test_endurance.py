"""Endurance layer: mobility, battery depletion, reclamation, streaming.

The soak harness promises three things the short grids never exercise:
deterministic churn (mobility compiled onto the queue), permanent battery
deaths threaded through the fault injector, and memory-flat windowed
metrics whose stream digest doubles as a determinism token. These tests
pin each piece in isolation, then the composed ``run_soak`` cell.
"""

import json

import pytest

from repro.experiments.comparison import config_for
from repro.experiments.harness import Network, NetworkConfig
from repro.experiments.soak import (
    SOAK_DEFAULTS,
    run_soak,
    soak_battery,
    soak_config,
    soak_mobility,
)
from repro.metrics.streaming import StreamingMetrics
from repro.radio.battery import MC_PER_MAH, BatteryParams
from repro.sim.units import MINUTE, SECOND
from repro.topology.mobility import MobilityParams

SMOKE = dict(
    duration_s=600.0,
    window_s=200.0,
    control_interval_s=30.0,
    converge_seconds=120.0,
    battery_mah=0.5,
    reclaim_ttl_s=120.0,
    tail_windows=8,
)

#: ``soak_digest`` of ``run_soak("tele", seed=3, **SMOKE)``. The only
#: pinned digest over mobility, battery deaths and reclamation — the write
#: side of the channel and link-estimator caches. Same policy as tests/golden/: a mismatch after a pure
#: optimisation means the optimisation is wrong; re-pin only together with
#: a KERNEL_BEHAVIOR_VERSION bump.
SMOKE_SOAK_DIGEST = "6c3b1dc013c7cfad3d20b0c3c32e65549f5b8be85a71d545d7de7b7940ccf4b1"


def make_net(**overrides) -> Network:
    config = NetworkConfig(
        topology="indoor-testbed",
        protocol="tele",
        seed=7,
        **overrides,
    )
    return Network(config)


# ----------------------------------------------------------------- params

class TestParams:
    def test_mobility_roundtrip(self):
        params = MobilityParams(
            model="commuter", nodes=[3, 5], speed_mps=(1.0, 2.0), start_s=30.0
        )
        again = MobilityParams.from_dict(json.loads(json.dumps(params.to_dict())))
        assert again == params
        assert isinstance(again.speed_mps, tuple)

    def test_mobility_validation(self):
        with pytest.raises(ValueError, match="model"):
            MobilityParams(model="teleport")
        with pytest.raises(ValueError, match="fraction"):
            MobilityParams(fraction=1.5)
        with pytest.raises(ValueError, match="speed"):
            MobilityParams(speed_mps=(0.0, 1.0))
        with pytest.raises(ValueError, match="step_s"):
            MobilityParams(step_s=0.0)

    def test_battery_roundtrip_and_budget(self):
        params = BatteryParams(capacity_mah=10.0, per_node_mah={3: 1.0})
        again = BatteryParams.from_dict(json.loads(json.dumps(params.to_dict())))
        # JSON stringifies dict keys; from_dict coerces them back to int.
        assert again.per_node_mah == {3: 1.0}
        assert again.budget_mc(3) == 1.0 * MC_PER_MAH
        assert again.budget_mc(4) == 10.0 * MC_PER_MAH

    def test_battery_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            BatteryParams(capacity_mah=0.0)
        with pytest.raises(ValueError, match="positive"):
            BatteryParams(per_node_mah={1: -2.0})

    def test_config_embeds_params_as_dicts(self):
        config = NetworkConfig(
            topology="indoor-testbed",
            protocol="tele",
            seed=1,
            mobility={"model": "waypoint", "fraction": 0.1},
            battery={"capacity_mah": 1.0},
        )
        assert isinstance(config.mobility, MobilityParams)
        assert isinstance(config.battery, BatteryParams)
        out = config.to_dict()
        assert out["mobility"]["fraction"] == 0.1
        assert out["battery"]["capacity_mah"] == 1.0

    def test_config_omits_none_knobs(self):
        """Soak-free configs must fingerprint exactly as before PR 9."""
        plain = config_for("tele", 26, 1).to_dict()
        assert "mobility" not in plain
        assert "battery" not in plain
        zero = soak_config("tele", 1, 26, churn_intensity=0.0, battery_mah=None)
        assert zero.to_dict() == plain


# --------------------------------------------------------------- mobility

class TestMobility:
    def test_waypoint_moves_and_kicks(self):
        net = make_net(
            mobility=MobilityParams(
                model="waypoint", nodes=[10, 20], pause_s=(5.0, 10.0)
            )
        )
        net.converge(max_seconds=120)
        net.run(300)
        summary = net.mobility.summary()
        assert summary["movers"] == 2
        assert summary["moves"] > 0
        assert summary["waypoints"] > 0
        assert summary["kicks"] > 0
        # Walkers actually left their deployed spots.
        for node in (10, 20):
            assert net.mobility.position(node) != tuple(
                map(float, net.deployment.positions[node])
            )

    def test_commuter_stays_within_commute_radius(self):
        radius = 20.0
        net = make_net(
            mobility=MobilityParams(
                model="commuter",
                nodes=[15, 25],
                commute_radius_m=radius,
                pause_s=(2.0, 5.0),
            )
        )
        net.converge(max_seconds=120)
        start = {n: net.mobility.position(n) for n in (15, 25)}
        for _ in range(30):
            net.run(20)
            for node, home in start.items():
                x, y = net.mobility.position(node)
                # Straight-line walk between two anchors at most radius
                # away (bbox-clamped) can never leave the home square.
                assert abs(x - home[0]) <= radius + 1e-9
                assert abs(y - home[1]) <= radius + 1e-9
        assert net.mobility.moves > 0

    def test_mobility_is_deterministic(self):
        def run_once():
            net = make_net(
                mobility=MobilityParams(model="waypoint", fraction=0.2)
            )
            net.converge(max_seconds=120)
            net.run(300)
            return (
                net.mobility.summary(),
                {n: net.mobility.position(n) for n in net.mobility.movers},
                net.sim.events_executed,
            )

        assert run_once() == run_once()

    def test_sink_never_moves(self):
        with pytest.raises(ValueError, match="sink"):
            net = make_net(mobility=MobilityParams(nodes=[0]))
            assert net  # pragma: no cover - construction must raise

    def test_dead_movers_stop_walking(self):
        net = make_net(
            mobility=MobilityParams(model="waypoint", nodes=[10], pause_s=(1.0, 2.0)),
            battery=BatteryParams(per_node_mah={10: 0.01}, check_interval_s=10.0),
        )
        net.converge(max_seconds=120)
        net.run(120)
        assert net.stacks[10].radio.failed
        moves_at_death = net.mobility.moves
        net.run(120)
        assert net.mobility.moves == moves_at_death
        assert net.mobility.dead_movers >= 1


# ---------------------------------------------------------------- battery

class TestBattery:
    def test_depletion_kills_through_injector(self):
        net = make_net(battery=BatteryParams(capacity_mah=0.05, check_interval_s=10.0))
        net.converge(max_seconds=120)
        net.run(300)
        assert net.battery.alive_count() < len(net.stacks) - 1
        assert net.fault_injector is not None
        assert len(net.fault_injector.deaths) == len(net.battery.deaths)
        for _, node in net.battery.deaths:
            assert net.stacks[node].radio.failed
        # The sink is mains-powered: never monitored, never dead.
        assert not net.stacks[net.sink].radio.failed
        summary = net.battery.summary()
        assert summary["deaths"] == len(net.battery.deaths)
        assert summary["first_death_s"] is not None

    def test_charge_accounting_monotone(self):
        net = make_net(battery=BatteryParams(capacity_mah=50.0, check_interval_s=5.0))
        net.converge(max_seconds=60)
        node = net.non_sink_nodes()[0]
        samples = []
        for _ in range(5):
            net.run(30)
            samples.append(net.battery.charge_used_mc(node))
        assert all(b >= a for a, b in zip(samples, samples[1:]))
        assert samples[-1] > 0.0

    def test_staggered_budgets(self):
        params = soak_battery(5.0, n_nodes=40, sink=0)
        budgets = sorted(params.per_node_mah.values())
        assert len(params.per_node_mah) == 39
        assert budgets[0] == pytest.approx(5.0 * 0.7)
        assert budgets[-1] == pytest.approx(5.0 * 1.3)
        assert soak_battery(None, 40, 0) is None
        assert soak_battery(0.0, 40, 0) is None


# ------------------------------------------------------------ reclamation

class TestReclamation:
    def _reclaimed(self, net: Network) -> int:
        return sum(
            adapter.allocation.positions_reclaimed
            for adapter in net.protocols.values()
            if getattr(adapter, "allocation", None) is not None
        )

    def test_dead_children_are_reclaimed(self):
        from repro.core.allocation import AllocationParams

        net = make_net(
            battery=BatteryParams(capacity_mah=0.05, check_interval_s=10.0),
            allocation_params=AllocationParams(
                reclaim_child_ttl=round(120.0 * SECOND)
            ),
        )
        net.converge(max_seconds=120)
        net.run(15 * 60)
        assert len(net.battery.deaths) > 0
        assert self._reclaimed(net) > 0

    def test_live_children_survive_ttl(self):
        """Reclamation must key on silence, not age: routing beacons and
        TeleAdjusting traffic keep live children's entries fresh. The TTL
        must exceed CTP's maximum Trickle beacon interval (~4 min) — the
        documented 600 s floor — else a quiescent but healthy child looks
        dead between beacons. Re-parenting can legitimately orphan a few
        old-parent entries; what must never happen is a *currently
        attached* child losing its slot, so the invariant is on attached
        children and surviving path codes, not a zero reclaim count."""
        from repro.core.allocation import AllocationParams

        net = make_net(
            allocation_params=AllocationParams(
                reclaim_child_ttl=round(600.0 * SECOND)
            ),
        )
        net.converge(max_seconds=120)
        coded_before = sum(
            1 for a in net.protocols.values() if a.path_code is not None
        )
        net.run(20 * 60)
        # Every child still routing through its parent keeps its entry.
        for node, adapter in net.protocols.items():
            if node == net.sink or adapter.path_code is None:
                continue
            parent = net.stacks[node].routing.parent
            if parent is None:
                continue
            assert node in net.protocols[parent].allocation.children, (
                f"attached child {node} evicted from parent {parent}"
            )
        coded_after = sum(
            1 for a in net.protocols.values() if a.path_code is not None
        )
        assert coded_after >= coded_before


# -------------------------------------------------- draining and windows

class TestStreaming:
    def test_drain_control_records(self):
        net = make_net()
        net.converge(max_seconds=120)
        destinations = net.non_sink_nodes()[:4]
        for destination in destinations:
            net.send_control(destination, payload=None)
            net.run(20)
        total = len(net.control_metrics.records)
        assert total == 4
        cutoff = net.sim.now - round(30.0 * SECOND)
        drained = net.drain_control_records(cutoff)
        assert all(r.sent_at < cutoff for r in drained)
        remaining = net.control_metrics.records
        assert len(drained) + len(remaining) == total
        assert all(r.sent_at >= cutoff for r in remaining)
        # A second drain at the same cutoff finds nothing.
        assert net.drain_control_records(cutoff) == []
        # The per-protocol record index dropped the drained ones too.
        assert len(net._records_by_key) == len(remaining)

    def test_windows_aggregate_and_hash(self):
        net = make_net()
        net.converge(max_seconds=120)
        streamer = StreamingMetrics(net, window_s=60.0)
        lines = []
        streamer.writer = lines.append
        digests = [streamer.stream_digest]
        for _ in range(2):
            net.send_control(net.non_sink_nodes()[0], payload=None)
            net.run(60)
            streamer.close_window(net.drain_control_records(net.sim.now + 1))
            digests.append(streamer.stream_digest)
        assert streamer.windows_emitted == 2
        assert len(set(digests)) == 3  # every window folds into the hash
        for window in lines:
            assert window["sent"] == 1
            assert window["delivery"] in (None, 0.0, 1.0)
            assert 0.0 <= window["duty_cycle"] <= 1.0
            assert window["charge_mc"] > 0.0
            assert window["events"] > 0
            json.dumps(window, sort_keys=True, allow_nan=False)  # canonical

    def test_windows_are_memory_flat(self):
        """The streamer holds O(nodes) state regardless of window count."""
        net = make_net()
        net.converge(max_seconds=60)
        streamer = StreamingMetrics(net, window_s=10.0)
        before = len(streamer._last_on) + len(streamer._last_tx)
        for _ in range(10):
            net.run(10)
            streamer.close_window(net.drain_control_records(net.sim.now + 1))
        after = len(streamer._last_on) + len(streamer._last_tx)
        assert after == before
        assert len(net.control_metrics.records) == 0


# ------------------------------------------------------------------ soak

class TestRunSoak:
    def test_smoke_and_degradation(self):
        result = run_soak("tele", seed=3, **SMOKE)
        assert result["soak_digest"] == SMOKE_SOAK_DIGEST
        assert result["converged"]
        assert result["windows"] >= 3
        assert result["controls_sent"] > 0
        assert result["deaths"] > 0
        assert result["positions_reclaimed"] >= 0
        assert result["mobility"]["moves"] > 0
        assert result["battery"]["deaths"] == result["deaths"]
        assert len(result["tail"]) == result["windows"]
        # Tail rows carry the degradation curve columns.
        from repro.experiments.soak import soak_grid_rows

        rows = soak_grid_rows(result)
        assert len(rows) == result["windows"]
        assert {"delivery", "alive", "reclaimed"} <= set(rows[0])
        # The alive count is non-increasing: deaths are permanent.
        alive = [w["alive"] for w in result["tail"]]
        assert all(b <= a for a, b in zip(alive, alive[1:]))
        json.dumps(result, sort_keys=True, allow_nan=False)

    def test_same_seed_is_bit_identical(self):
        first = run_soak("tele", seed=5, **SMOKE)
        second = run_soak("tele", seed=5, **SMOKE)
        assert first["stream_digest"] == second["stream_digest"]
        assert first["soak_digest"] == second["soak_digest"]
        assert first["events_executed"] == second["events_executed"]

    def test_jsonl_stream_matches_tail(self, tmp_path):
        path = tmp_path / "soak.jsonl"
        result = run_soak("tele", seed=3, jsonl_path=str(path), **SMOKE)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == result["windows"]
        assert lines[-result["windows"]:][-len(result["tail"]):] == result["tail"]

    def test_zero_knob_config_identical_to_comparison(self):
        config = soak_config("drip", 2, 26, churn_intensity=0.0, battery_mah=None)
        assert config.to_dict() == config_for("drip", 26, 2).to_dict()
        assert soak_mobility(0.0, 240.0) is None

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            run_soak("tele", duration_s=0.0)
        with pytest.raises(ValueError, match="window_s"):
            run_soak("tele", window_s=-1.0)


class TestRunnerIntegration:
    def test_soak_spec_fingerprint_and_unknown_kwarg(self):
        from repro.runner import soak_spec

        spec = soak_spec("tele", seed=1, duration_s=600.0)
        assert spec.kind == "soak"
        assert spec.params["schedule"]["duration_s"] == 600.0
        assert spec.params["config"]["mobility"] is not None
        assert spec.fingerprint == soak_spec("tele", seed=1, duration_s=600.0).fingerprint
        assert spec.fingerprint != soak_spec("tele", seed=2, duration_s=600.0).fingerprint
        with pytest.raises(TypeError, match="bogus"):
            soak_spec("tele", bogus=True)

    def test_sim_seconds_estimate(self):
        from repro.runner import soak_spec
        from repro.runner.execute import sim_seconds_estimate

        spec = soak_spec("tele", duration_s=600.0, converge_seconds=120.0)
        assert sim_seconds_estimate(spec) == 720.0
