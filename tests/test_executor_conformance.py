"""Executor conformance: both executors produce bit-identical results.

The scheduler/executor split (:mod:`repro.runner.executors`) is only safe
if *where* a cell runs never leaks into *what* it computes. These tests
drive the same small chaos grid through the in-process executor
(``jobs=1``) and the local process pool (``jobs>=2``) and require equal
``trace_digest`` values per cell plus equivalent telemetry semantics.
"""

import pytest

from repro.runner import ParallelRunner
from repro.runner.taskspec import chaos_spec, selftest_spec

#: The conformance grid: small but real — chaos cells exercise the full
#: simulator (faults included) and carry a trace digest of every event.
FAST = dict(
    n_controls=2, control_interval_s=4.0, converge_seconds=30.0, drain_seconds=10.0
)


def chaos_grid():
    return [
        chaos_spec("tele", scenario="crash-churn", intensity=0.5, seed=1, **FAST),
        chaos_spec("re-tele", scenario="crash-churn", intensity=0.5, seed=1, **FAST),
    ]


def digests(outcomes):
    return [o.result["trace_digest"] for o in outcomes]


@pytest.fixture(scope="module")
def serial_reference():
    runner = ParallelRunner(jobs=1)
    outcomes = runner.run(chaos_grid())
    assert runner.last_report.executor == "in-process"
    return outcomes


class TestBitIdentity:
    def test_local_pool_matches_serial(self, serial_reference):
        runner = ParallelRunner(jobs=2)
        outcomes = runner.run(chaos_grid())
        assert runner.last_report.executor == "local-pool"
        assert digests(outcomes) == digests(serial_reference)


class TestTelemetryEquivalence:
    """Same grid, same counters — regardless of the executor."""

    def test_counters_match_across_executors(self):
        specs = [selftest_spec(i, payload=11) for i in range(5)]
        reports = {}
        for name, runner in (
            ("in-process", ParallelRunner(jobs=1)),
            ("local-pool", ParallelRunner(jobs=2)),
        ):
            outcomes = runner.run(specs)
            assert [o.status for o in outcomes] == ["executed"] * 5
            reports[name] = runner.last_report
        for name, report in reports.items():
            assert report.executor == name
            assert report.executed == 5
            assert report.failed == 0 and report.cached == 0
            assert [c.label for c in report.cells] == [s.name for s in specs]
            assert [c.status for c in report.cells] == ["executed"] * 5
