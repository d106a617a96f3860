"""Tests for ASCII topology rendering and result persistence."""

import json

import pytest

from repro.experiments.comparison import ComparisonResult
from repro.metrics.control import ControlMetrics, ControlRecord
from repro.metrics.io import comparison_to_dict, load_results
from repro.topology import indoor_testbed, random_uniform
from repro.topology.render import render_deployment, render_network


def write_out(payload, path):
    """Write results as ``repro run --out`` does."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


class TestRenderDeployment:
    def test_contains_sink_and_frame(self):
        deployment = indoor_testbed(seed=1)
        text = render_deployment(deployment)
        assert "S" in text
        assert text.count("+") >= 4  # box corners
        assert "40 nodes" in text

    def test_hop_glyphs(self):
        deployment = random_uniform(n=5, width=30, height=30, seed=2)
        hops = {n: n % 3 for n in range(5)}
        hops[deployment.sink] = 0
        text = render_deployment(deployment, hop_counts=hops)
        assert "hop count" in text

    def test_unrouted_marker(self):
        deployment = random_uniform(n=4, width=20, height=20, seed=3)
        hops = {n: 0xFFFF for n in range(4) if n != deployment.sink}
        text = render_deployment(deployment, hop_counts=hops)
        assert "?" in text

    def test_custom_labels(self):
        deployment = random_uniform(n=4, width=20, height=20, seed=3)
        text = render_deployment(deployment, label=lambda n: "X")
        assert "X" in text

    def test_tiny_grid_rejected(self):
        deployment = random_uniform(n=4, width=20, height=20, seed=3)
        with pytest.raises(ValueError):
            render_deployment(deployment, width=2, height=2)

    def test_render_network(self):
        import repro

        net = repro.build_network(topology="indoor-testbed", seed=1)
        net.run(30)
        text = render_network(net)
        assert "S" in text


class TestResultsIO:
    def _result(self):
        metrics = ControlMetrics()
        record = ControlRecord(index=0, destination=4, hop_count=2, sent_at=0)
        record.delivered_at = 1_500_000
        record.athx = 2
        metrics.add(record)
        return ComparisonResult(
            variant="tele",
            zigbee_channel=26,
            seed=1,
            n_controls=1,
            pdr=1.0,
            pdr_by_hop={2: 1.0},
            latency_by_hop={2: 1.5},
            mean_latency=1.5,
            tx_per_control=3.0,
            duty_cycle=0.03,
            athx_samples=[(2, 2)],
            control_metrics=metrics,
        )

    def test_dict_shape(self):
        payload = comparison_to_dict(self._result())
        assert payload["variant"] == "tele"
        assert payload["pdr_by_hop"] == {"2": 1.0}
        assert payload["records"][0]["latency_s"] == pytest.approx(1.5)

    def test_roundtrip_single(self, tmp_path):
        path = write_out(comparison_to_dict(self._result()), tmp_path / "run.json")
        loaded = load_results(path)
        assert loaded["seed"] == 1
        assert loaded["athx_samples"] == [[2, 2]]

    def test_roundtrip_list(self, tmp_path):
        payload = [comparison_to_dict(self._result()) for _ in range(2)]
        path = write_out(payload, tmp_path / "runs.json")
        loaded = load_results(path)
        assert isinstance(loaded, list) and len(loaded) == 2
