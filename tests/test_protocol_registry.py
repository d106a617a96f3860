"""Tests for the protocol plugin registry and third-party adapters.

Covers the registry's own contract (duplicate rejection, helpful unknown-name
errors, variant resolution) and the headline promise of the plugin seam: an
adapter defined entirely *outside* ``src/repro`` — touching only the public
``ControlProtocolAdapter`` API plus the simulator clock — runs end to end
through ``Network``, ``run_comparison``, the runner grid, and the CLI with no
harness edits.
"""

import pytest

from repro.experiments.comparison import run_comparison
from repro.experiments.harness import Network, NetworkConfig
from repro.protocols import (
    REGISTRY,
    ControlProtocolAdapter,
    ProtocolRegistry,
    TeleProtocolAdapter,
    register_protocol,
    resolve_variant,
    unregister_protocol,
    variant_names,
)
from repro.runner import ParallelRunner, comparison_spec
from repro.sim.units import SECOND
from repro.topology import random_uniform


class FloodAdapter(ControlProtocolAdapter):
    """Toy third-party protocol: oracle delivery after a fixed delay.

    Deliberately uses nothing from repro's internals beyond the adapter base
    class and the simulator's public ``schedule`` — the point is proving the
    seam, not modelling radio traffic.
    """

    name = "flood"
    delivery_delay_s = 0.5

    def __init__(self, network, node_id, stack):
        super().__init__(network, node_id, stack)
        self.started = False
        self._serial = 0

    def start(self):
        self.started = True

    def coverage_fraction(self):
        return 1.0  # nothing to converge: floods need no addressing state

    def send_control(self, record, destination, payload):
        serial = self._serial
        self._serial += 1
        self.register_record(serial, record)
        sim = self.network.sim

        def deliver():
            pending = self.resolve_record(serial)
            if pending is not None and pending.delivered_at is None:
                pending.delivered_at = sim.now
                pending.acked_at = sim.now

        sim.schedule(round(self.delivery_delay_s * SECOND), deliver)


@pytest.fixture
def flood_registered():
    register_protocol("flood", FloodAdapter)
    try:
        yield
    finally:
        unregister_protocol("flood")


class TestRegistryContract:
    def test_duplicate_registration_rejected(self):
        registry = ProtocolRegistry()
        registry.register("flood", FloodAdapter)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("flood", FloodAdapter)

    def test_replace_overrides_previous_registration(self):
        registry = ProtocolRegistry()
        registry.register("flood", FloodAdapter, variants={"flood-a": {}})
        registry.register(
            "flood", FloodAdapter, variants={"flood-b": {}}, replace=True
        )
        assert registry.variant_names() == ["flood-b"]

    def test_unknown_protocol_error_lists_names(self):
        with pytest.raises(ValueError) as excinfo:
            REGISTRY.get("carrier-pigeon")
        message = str(excinfo.value)
        assert "carrier-pigeon" in message
        for name in ("tele", "drip", "rpl", "orpl", "none"):
            assert name in message
        assert "register_protocol" in message

    def test_unknown_variant_error_lists_variants(self):
        with pytest.raises(ValueError, match="unknown variant"):
            resolve_variant("carrier-pigeon")

    def test_variant_claimed_by_other_protocol_rejected(self):
        registry = ProtocolRegistry()
        registry.register("tele", TeleProtocolAdapter)
        with pytest.raises(ValueError, match="already registered by"):
            registry.register("flood", FloodAdapter, variants={"tele": {}})

    def test_builtin_variant_order(self):
        assert variant_names()[:5] == ["tele", "re-tele", "drip", "rpl", "orpl"]

    def test_re_tele_variant_resolution(self):
        protocol, overrides = resolve_variant("re-tele")
        assert protocol == "tele"
        assert overrides == {"re_tele": True}

    def test_unknown_protocol_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            NetworkConfig(protocol="carrier-pigeon")

    def test_unregister_removes_config_access(self):
        try:
            register_protocol("flood", FloodAdapter)
        finally:
            unregister_protocol("flood")
        with pytest.raises(ValueError, match="unknown protocol"):
            NetworkConfig(protocol="flood")


class TestThirdPartyAdapterEndToEnd:
    def test_flood_through_network(self, flood_registered):
        deployment = random_uniform(n=8, width=40, height=40, seed=3)
        net = Network(NetworkConfig(topology=deployment, protocol="flood", seed=3))
        assert net.converge(max_seconds=5.0)
        assert all(a.started for a in net.protocols.values())
        assert isinstance(net.protocol_at(net.sink), FloodAdapter)
        destination = net.non_sink_nodes()[0]
        record = net.send_control(destination, payload={"x": 1})
        net.run(2.0)
        assert record.delivered
        assert record.rtt_s is not None
        # The flood adapter answers no named coverage metric.
        assert net.coded_fraction() == 0.0

    def test_flood_through_runner_grid(self, flood_registered):
        spec = comparison_spec(
            "flood",
            seed=2,
            n_controls=2,
            control_interval_s=2.0,
            converge_seconds=5.0,
            drain_seconds=5.0,
        )
        outcomes = ParallelRunner(jobs=1).run([spec])
        assert len(outcomes) == 1
        assert outcomes[0].result is not None
        assert outcomes[0].result["pdr"] == 1.0

    def test_flood_through_run_comparison(self, flood_registered):
        result = run_comparison(
            "flood",
            seed=2,
            n_controls=2,
            control_interval_s=2.0,
            converge_seconds=5.0,
            drain_seconds=5.0,
        )
        assert result.variant == "flood"
        assert result.pdr == 1.0

    def test_flood_through_cli(self, flood_registered, capsys):
        from repro import cli

        rc = cli.main(
            [
                "run", "chaos",
                "--variants", "flood",
                "--intensities", "0.25",
                "--seeds", "2",
                "--controls", "2",
                "--interval", "2",
                "--converge", "5",
                "--drain", "5",
                "--no-cache",
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "flood" in out
