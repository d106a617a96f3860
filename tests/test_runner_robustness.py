"""Robustness machinery: timeouts, crash accounting, shutdown, self-healing cache.

Everything here uses the cheap "selftest" task kind so the engine's fault
handling is exercised without paying for packet-level simulations.
"""

import os
import signal
import threading
import time

from repro.runner import ParallelRunner, ResultCache, selftest_spec


class TestTimeout:
    def test_hung_worker_is_killed_and_retried(self):
        # The hang (60 s) dwarfs the timeout (1 s): only killing the cell's
        # process lets the grid finish fast, and the re-run succeeds.
        specs = [
            selftest_spec(0),
            selftest_spec(1, fault={"hang_attempts": 1, "hang_s": 60.0}),
            selftest_spec(2),
        ]
        runner = ParallelRunner(jobs=2, timeout=1.0)
        started = time.monotonic()
        outcomes = runner.run(specs)
        assert [o.status for o in outcomes] == ["executed"] * 3
        assert [o.attempts for o in outcomes] == [1, 2, 1]
        assert time.monotonic() - started < 30.0

    def test_permanently_hung_cell_is_quarantined(self):
        specs = [
            selftest_spec(0, sleep_s=0.2),
            selftest_spec(1, fault={"hang_attempts": 99, "hang_s": 60.0}),
            selftest_spec(2, sleep_s=0.2),
        ]
        runner = ParallelRunner(jobs=2, timeout=1.0)
        outcomes = runner.run(specs)
        assert [o.status for o in outcomes] == ["executed", "failed", "executed"]
        assert outcomes[1].quarantined
        assert outcomes[1].attempts == 2
        assert "timed out" in outcomes[1].error
        # A timeout kills only its own cell's process.
        assert [outcomes[0].attempts, outcomes[2].attempts] == [1, 1]


class TestHonestAccounting:
    def test_innocent_siblings_do_not_burn_retry_budget(self):
        # One cell's process always crashes. It is re-run once, then
        # quarantined; its siblings run in their own processes and finish
        # on their first attempt.
        specs = [
            selftest_spec(0, sleep_s=0.2),
            selftest_spec(1, fault={"crash_attempts": 99}),
            selftest_spec(2, sleep_s=0.2),
        ]
        runner = ParallelRunner(jobs=3)
        outcomes = runner.run(specs)
        assert [o.status for o in outcomes] == ["executed", "failed", "executed"]
        assert outcomes[1].quarantined
        assert outcomes[1].attempts == 2
        for innocent in (outcomes[0], outcomes[2]):
            assert innocent.attempts == 1
        assert "[quarantined]" in runner.last_report.summary_line()

    def test_report_aggregates(self):
        runner = ParallelRunner(jobs=2)
        runner.run(
            [selftest_spec(0), selftest_spec(1, fault={"error_attempts": 1})]
        )
        counters = runner.last_report.counters()
        assert counters["executed"] == 2
        assert counters["retried"] == 1
        assert counters["quarantined"] == []


class TestGracefulShutdown:
    def test_sigint_drains_and_journals_the_rest(self, tmp_path):
        # Fire SIGINT while the first (slow) cell runs: the engine finishes
        # it, skips the rest, and the journal makes the grid resumable.
        specs = [
            selftest_spec(0, sleep_s=0.6),
            selftest_spec(1),
            selftest_spec(2),
        ]
        runner = ParallelRunner(jobs=1, journal_dir=tmp_path, handle_signals=True)
        killer = threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGINT))
        killer.start()
        try:
            outcomes = runner.run(specs)
        finally:
            killer.cancel()
        assert outcomes[0].status == "executed"
        assert [o.status for o in outcomes[1:]] == ["interrupted"] * 2
        assert runner.last_report.interrupted == 2
        assert "INTERRUPTED" in runner.last_report.summary_line()

        resumed = ParallelRunner(jobs=1, journal_dir=tmp_path, resume=True)
        again = resumed.run(specs)
        assert [o.status for o in again] == ["journal", "executed", "executed"]
        assert again[0].result == outcomes[0].result

    def test_signal_handlers_restored(self):
        before = signal.getsignal(signal.SIGINT)
        runner = ParallelRunner(jobs=1, handle_signals=True)
        runner.run([selftest_spec(0)])
        assert signal.getsignal(signal.SIGINT) is before


class TestSelfHealingCache:
    def _flip_byte(self, path):
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_bit_flip_quarantines_and_reexecutes(self, tmp_path):
        spec = selftest_spec(1)
        cache = ResultCache(tmp_path)
        cold = ParallelRunner(jobs=1, cache=cache).run([spec])
        entry = cache.path_for(spec)
        self._flip_byte(entry)

        messages = []
        cache = ResultCache(
            tmp_path, progress=lambda cat, msg, **data: messages.append((cat, msg))
        )
        runner = ParallelRunner(jobs=1, cache=cache)
        warm = runner.run([spec])
        # The damaged entry degraded to a transparent re-execution...
        assert warm[0].status == "executed"
        assert warm[0].result == cold[0].result
        # ...was quarantined aside, not deleted...
        assert cache.quarantined == 1
        assert entry.with_name(entry.name + ".corrupt").exists()
        # ...was logged, and the slot now holds a fresh valid entry.
        assert any("quarantined" in msg for cat, msg in messages if cat == "cache")
        assert cache.load(spec) == cold[0].result
        assert ParallelRunner(jobs=1, cache=cache).run([spec])[0].status == "cached"

    def test_truncated_entry_is_quarantined(self, tmp_path):
        spec = selftest_spec(2)
        cache = ResultCache(tmp_path)
        ParallelRunner(jobs=1, cache=cache).run([spec])
        path = cache.path_for(spec)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.load(spec) is None
        assert cache.quarantined == 1

    def test_wrong_schema_is_quarantined(self, tmp_path):
        spec = selftest_spec(3)
        cache = ResultCache(tmp_path)
        ParallelRunner(jobs=1, cache=cache).run([spec])
        path = cache.path_for(spec)
        path.write_text('{"schema": 999, "result": {}}')
        assert cache.load(spec) is None
        assert cache.quarantined == 1

    def test_corruption_never_aborts_a_grid(self, tmp_path):
        specs = [selftest_spec(i) for i in range(4)]
        cache = ResultCache(tmp_path)
        cold = ParallelRunner(jobs=1, cache=cache).run(specs)
        for spec in (specs[0], specs[2]):
            self._flip_byte(cache.path_for(spec))
        runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path))
        warm = runner.run(specs)
        assert [o.result for o in warm] == [o.result for o in cold]
        assert runner.last_report.executed == 2
        assert runner.last_report.cached == 2
        assert runner.last_report.failed == 0
