"""The execution engine: ordering, caching, retries, crashes, timeouts.

These tests use the cheap built-in "selftest" task kind so the engine's
machinery is exercised without paying for packet-level simulations.
"""

import json

import pytest

from repro.runner import (
    InjectedFault,
    ParallelRunner,
    ResultCache,
    TaskSpec,
    execute_spec,
    selftest_spec,
)


def values(outcomes):
    return [o.result["value"] if o.result else None for o in outcomes]


class TestSpecBasics:
    def test_round_trip(self):
        spec = selftest_spec(3, sleep_s=0.5, fault={"crash_attempts": 1})
        again = TaskSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_fault_and_label_not_in_fingerprint(self):
        plain = selftest_spec(3)
        faulty = selftest_spec(3, fault={"crash_attempts": 1})
        relabelled = TaskSpec(plain.kind, plain.params, label="other")
        assert plain.fingerprint == faulty.fingerprint == relabelled.fingerprint

    def test_params_change_fingerprint(self):
        assert selftest_spec(3).fingerprint != selftest_spec(4).fingerprint

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            execute_spec(TaskSpec("nope", {}))


class TestSerialPath:
    def test_results_in_spec_order(self):
        specs = [selftest_spec(i) for i in (5, 1, 9)]
        outcomes = ParallelRunner(jobs=1).run(specs)
        assert [o.spec for o in outcomes] == specs
        assert values(outcomes) == [o["value"] for o in map(execute_spec, specs)]

    def test_injected_error_is_retried(self):
        specs = [selftest_spec(0, fault={"error_attempts": 1})]
        outcomes = ParallelRunner(jobs=1).run(specs)
        assert outcomes[0].status == "executed"
        assert outcomes[0].attempts == 2

    def test_in_process_crash_fault_raises_then_retries(self):
        # In-process, a "crash" degrades to InjectedFault via the same path.
        specs = [selftest_spec(0, fault={"crash_attempts": 1})]
        outcomes = ParallelRunner(jobs=1).run(specs)
        assert outcomes[0].status == "executed"
        assert outcomes[0].attempts == 2

    def test_retry_budget_exhaustion_fails_cell_only(self):
        specs = [
            selftest_spec(0),
            selftest_spec(1, fault={"error_attempts": 99}),
            selftest_spec(2),
        ]
        runner = ParallelRunner(jobs=1)
        outcomes = runner.run(specs)
        assert [o.status for o in outcomes] == ["executed", "failed", "executed"]
        assert outcomes[1].attempts == 2  # one immediate re-run, then final
        assert outcomes[1].result is None
        assert "InjectedFault" in outcomes[1].error
        report = runner.last_report
        assert report.failed == 1 and report.executed == 2
        assert "failed" in report.summary_table()


class TestCache:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        specs = [selftest_spec(i) for i in range(4)]
        cache = ResultCache(tmp_path)
        first = ParallelRunner(jobs=1, cache=cache)
        cold = first.run(specs)
        assert first.last_report.executed == 4 and first.last_report.cached == 0
        second = ParallelRunner(jobs=1, cache=cache)
        warm = second.run(specs)
        assert second.last_report.executed == 0 and second.last_report.cached == 4
        assert values(warm) == values(cold)
        assert cache.stores == 4 and cache.hits == 4

    def test_stale_version_is_a_miss(self, tmp_path):
        spec = selftest_spec(1)
        cache = ResultCache(tmp_path)
        ParallelRunner(jobs=1, cache=cache).run([spec])
        path = cache.path_for(spec)
        stored = json.loads(path.read_text())
        stored["version"] = "0.0.0-stale"
        path.write_text(json.dumps(stored))
        assert cache.load(spec) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = selftest_spec(1)
        cache = ResultCache(tmp_path)
        cache.path_for(spec).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(spec).write_text("{not json")
        assert cache.load(spec) is None
        outcomes = ParallelRunner(jobs=1, cache=cache).run([spec])
        assert outcomes[0].status == "executed"

    def test_failed_cells_are_not_cached(self, tmp_path):
        spec = selftest_spec(1, fault={"error_attempts": 99})
        cache = ResultCache(tmp_path)
        ParallelRunner(jobs=1, cache=cache).run([spec])
        assert cache.stores == 0
        assert cache.load(spec) is None

    def test_kernel_version_bump_changes_fingerprint(self, monkeypatch):
        import repro.runner.taskspec as taskspec_module

        before = selftest_spec(1).fingerprint
        monkeypatch.setattr(
            taskspec_module, "KERNEL_BEHAVIOR_VERSION",
            taskspec_module.KERNEL_BEHAVIOR_VERSION + 1,
        )
        assert selftest_spec(1).fingerprint != before

    def test_kernel_version_bump_invalidates_cache_entries(
        self, tmp_path, monkeypatch
    ):
        import repro.runner.cache as cache_module

        spec = selftest_spec(1)
        cache = ResultCache(tmp_path)
        ParallelRunner(jobs=1, cache=cache).run([spec])
        assert cache.load(spec) is not None
        # A kernel that behaves differently must not serve results simulated
        # by the old kernel, even for an identical (pre-bump) fingerprint.
        monkeypatch.setattr(
            cache_module, "KERNEL_BEHAVIOR_VERSION",
            cache_module.KERNEL_BEHAVIOR_VERSION + 1,
        )
        assert cache.load(spec) is None


class TestParallelPath:
    def test_order_independent_of_completion_order(self):
        # The first-submitted cell sleeps longest; order must still hold.
        specs = [
            selftest_spec(0, sleep_s=0.4),
            selftest_spec(1, sleep_s=0.0),
            selftest_spec(2, sleep_s=0.1),
        ]
        outcomes = ParallelRunner(jobs=2).run(specs)
        assert values(outcomes) == values(ParallelRunner(jobs=1).run(specs))

    def test_worker_crash_is_retried_and_grid_completes(self):
        specs = [
            selftest_spec(0),
            selftest_spec(1, fault={"crash_attempts": 1}),
            selftest_spec(2),
            selftest_spec(3),
        ]
        runner = ParallelRunner(jobs=2)
        outcomes = runner.run(specs)
        assert [o.status for o in outcomes] == ["executed"] * 4
        assert [o.attempts for o in outcomes] == [1, 2, 1, 1]
        assert runner.last_report.retried >= 1

    def test_poisoned_cell_fails_alone(self):
        specs = [
            selftest_spec(0),
            selftest_spec(1, fault={"crash_attempts": 99}),
            selftest_spec(2),
        ]
        runner = ParallelRunner(jobs=2)
        outcomes = runner.run(specs)
        assert [o.status for o in outcomes] == ["executed", "failed", "executed"]
        assert "died" in outcomes[1].error
        summary = runner.last_report.summary_table()
        assert "failed" in summary and "died" in summary

    def test_hung_cell_times_out_and_grid_completes(self):
        specs = [
            selftest_spec(0),
            selftest_spec(1, fault={"hang_attempts": 99, "hang_s": 60.0}),
            selftest_spec(2),
        ]
        runner = ParallelRunner(jobs=2, timeout=1.5)
        outcomes = runner.run(specs)
        assert outcomes[1].status == "failed"
        assert "timed out" in outcomes[1].error
        assert outcomes[0].status == "executed"
        assert outcomes[2].status == "executed"
        # The whole grid must finish in bounded time (no 60 s hang).
        assert runner.last_report.wall_s < 30.0

    def test_progress_sink_receives_tracer_style_events(self):
        events = []
        runner = ParallelRunner(
            jobs=2, progress=lambda category, message, **data: events.append(
                (category, message, data)
            )
        )
        runner.run([selftest_spec(0), selftest_spec(1)])
        assert all(category == "runner" for category, _, _ in events)
        assert any(message.startswith("done") for _, message, _ in events)
        assert any("executed" in message for _, message, _ in events)


class TestValidation:
    def test_jobs_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=-1)

    def test_jobs_zero_auto_detects_cpu_count(self):
        import os

        runner = ParallelRunner(jobs=0)
        assert runner.jobs == (os.cpu_count() or 1)
        assert runner.jobs_requested == 0
        runner.run([selftest_spec(0)])
        assert runner.last_report.jobs == runner.jobs
        assert runner.last_report.jobs_requested == 0

    def test_injected_fault_is_a_runtime_error(self):
        assert issubclass(InjectedFault, RuntimeError)
