"""Property tests: result serialisation round-trips exactly.

The runner's cache stores ``comparison_to_dict`` output as JSON and
rehydrates it with ``comparison_from_dict``; these properties are what make
"cached cell" and "re-simulated cell" indistinguishable to every consumer.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.comparison import ComparisonResult
from repro.metrics.control import ControlMetrics, ControlRecord
from repro.metrics.io import (
    comparison_from_dict,
    comparison_to_dict,
    control_record_from_dict,
    control_record_to_dict,
    load_results,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
maybe_float = st.none() | finite
times = st.integers(min_value=0, max_value=10**12)

records = st.builds(
    ControlRecord,
    index=st.integers(min_value=0, max_value=10**6),
    destination=st.integers(min_value=0, max_value=500),
    hop_count=st.integers(min_value=0, max_value=30),
    sent_at=times,
    delivered_at=st.none() | times,
    acked_at=st.none() | times,
    athx=st.none() | st.integers(min_value=0, max_value=100),
    via_unicast=st.booleans(),
)


def metrics_from(record_list):
    if record_list is None:
        return None
    metrics = ControlMetrics()
    for record in record_list:
        metrics.add(record)
    return metrics


comparisons = st.builds(
    ComparisonResult,
    variant=st.sampled_from(("tele", "re-tele", "drip", "rpl", "orpl")),
    zigbee_channel=st.sampled_from((26, 19)),
    seed=st.integers(min_value=0, max_value=100),
    n_controls=st.integers(min_value=0, max_value=200),
    pdr=maybe_float,
    pdr_by_hop=st.dictionaries(st.integers(0, 20), finite, max_size=8),
    latency_by_hop=st.dictionaries(st.integers(0, 20), finite, max_size=8),
    mean_latency=maybe_float,
    tx_per_control=maybe_float,
    duty_cycle=maybe_float,
    athx_samples=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 100)), max_size=10
    ),
    control_metrics=st.builds(
        metrics_from, st.none() | st.lists(records, max_size=6)
    ),
    events_executed=st.none() | st.integers(min_value=0, max_value=10**9),
)


def assert_comparisons_equal(a: ComparisonResult, b: ComparisonResult) -> None:
    for name in (
        "variant", "zigbee_channel", "seed", "n_controls", "pdr",
        "pdr_by_hop", "latency_by_hop", "mean_latency", "tx_per_control",
        "duty_cycle", "athx_samples", "events_executed",
    ):
        assert getattr(a, name) == getattr(b, name), name
    if a.control_metrics is None:
        assert b.control_metrics is None
    else:
        assert b.control_metrics is not None
        assert a.control_metrics.records == b.control_metrics.records


@given(records)
def test_control_record_round_trip(record):
    through_json = json.loads(json.dumps(control_record_to_dict(record)))
    assert control_record_from_dict(through_json) == record


@settings(max_examples=60)
@given(comparisons)
def test_comparison_round_trip(result):
    through_json = json.loads(json.dumps(comparison_to_dict(result)))
    assert_comparisons_equal(comparison_from_dict(through_json), result)


@given(comparisons)
@settings(max_examples=20)
def test_aggregates_survive_round_trip(result):
    back = comparison_from_dict(comparison_to_dict(result))
    if result.control_metrics is not None:
        assert back.control_metrics.pdr() == result.control_metrics.pdr()
        assert (
            back.control_metrics.athx_samples()
            == result.control_metrics.athx_samples()
        )


def write_out(payload, path):
    """Write results as ``repro run --out`` does."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def test_save_then_load_rehydrated_single(tmp_path):
    result = ComparisonResult(
        variant="tele", zigbee_channel=26, seed=1, n_controls=2,
        pdr=0.5, pdr_by_hop={1: 0.5}, latency_by_hop={1: 1.25},
        mean_latency=1.25, tx_per_control=3.0, duty_cycle=0.04,
        athx_samples=[(1, 2)],
    )
    path = write_out(comparison_to_dict(result), tmp_path / "one.json")
    loaded = load_results(path, rehydrate=True)
    assert isinstance(loaded, ComparisonResult)
    assert_comparisons_equal(loaded, result)


def test_save_then_load_rehydrated_list(tmp_path):
    results = [
        ComparisonResult(
            variant="rpl", zigbee_channel=19, seed=s, n_controls=1,
            pdr=1.0, pdr_by_hop={}, latency_by_hop={}, mean_latency=None,
            tx_per_control=None, duty_cycle=None,
        )
        for s in (1, 2)
    ]
    path = write_out([comparison_to_dict(r) for r in results], tmp_path / "many.json")
    loaded = load_results(path, rehydrate=True)
    assert [r.seed for r in loaded] == [1, 2]
    for original, back in zip(results, loaded):
        assert_comparisons_equal(back, original)


def test_load_results_default_stays_plain(tmp_path):
    result = ComparisonResult(
        variant="tele", zigbee_channel=26, seed=1, n_controls=0,
        pdr=None, pdr_by_hop={}, latency_by_hop={}, mean_latency=None,
        tx_per_control=None, duty_cycle=None,
    )
    path = write_out(comparison_to_dict(result), tmp_path / "plain.json")
    assert isinstance(load_results(path), dict)
