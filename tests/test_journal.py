"""The run journal: durable append, tolerant replay, grid identity."""

import json

import pytest

from repro.runner import (
    JOURNAL_SCHEMA,
    ParallelRunner,
    RunJournal,
    grid_fingerprint,
    selftest_spec,
)


@pytest.fixture
def specs():
    return [selftest_spec(i) for i in range(3)]


class TestGridFingerprint:
    def test_stable_for_same_grid(self, specs):
        assert grid_fingerprint(specs) == grid_fingerprint(specs)

    def test_cell_order_matters(self, specs):
        assert grid_fingerprint(specs) != grid_fingerprint(list(reversed(specs)))

    def test_jobs_do_not_matter(self, specs, tmp_path):
        # Resume must work across worker counts: the journal of a jobs=4 run
        # is found by a jobs=1 resume, so jobs cannot be in the identity.
        ParallelRunner(jobs=2, journal_dir=tmp_path / "a").run(specs)
        ParallelRunner(jobs=1, journal_dir=tmp_path / "b").run(specs)
        a = [p.name for p in (tmp_path / "a").glob("*.jsonl")]
        b = [p.name for p in (tmp_path / "b").glob("*.jsonl")]
        assert a == b == [RunJournal.for_grid(tmp_path, specs).path.name]


class TestRecordAndReplay:
    def test_open_header_written_once(self, specs, tmp_path):
        journal = RunJournal.for_grid(tmp_path, specs)
        journal.record("dispatch", cell="abc", index=0, attempt=0)
        journal.record("done", cell="abc", index=0, result={"v": 1})
        lines = [json.loads(l) for l in journal.path.read_text().splitlines()]
        assert [l["t"] for l in lines] == ["open", "dispatch", "done"]
        assert lines[0]["schema"] == JOURNAL_SCHEMA
        assert lines[0]["grid"] == journal.grid

    def test_replay_folds_lifecycle(self, specs, tmp_path):
        journal = RunJournal.for_grid(tmp_path, specs)
        journal.record("dispatch", cell="a", index=0, attempt=0)
        journal.record("dispatch", cell="b", index=1, attempt=0)
        journal.record("done", cell="a", index=0, result={"v": 1}, attempts=1)
        journal.record("quarantine", cell="c", index=2, error="kept dying")
        state = journal.replay()
        assert set(state.completed) == {"a"}
        assert state.completed["a"]["result"] == {"v": 1}
        assert set(state.quarantined) == {"c"}
        assert state.in_flight == {"b"}
        assert not state.truncated and not state.closed

    def test_missing_file_is_empty_state(self, tmp_path):
        state = RunJournal(tmp_path / "absent.jsonl").replay()
        assert state.completed == {} and state.records == 0

    def test_torn_tail_is_tolerated(self, specs, tmp_path):
        # A crash mid-append leaves a half-written final line; replay must
        # keep everything before it and flag the truncation.
        journal = RunJournal.for_grid(tmp_path, specs)
        journal.record("done", cell="a", index=0, result={"v": 1}, attempts=1)
        with open(journal.path, "a") as handle:
            handle.write('{"t":"done","cell":"b","resu')
        state = journal.replay()
        assert set(state.completed) == {"a"}
        assert state.truncated

    def test_grid_mismatch_rejected(self, specs, tmp_path):
        journal = RunJournal.for_grid(tmp_path, specs)
        journal.record("close")
        stranger = RunJournal(journal.path, grid="not-this-grid")
        with pytest.raises(ValueError, match="belongs to grid"):
            stranger.replay()

    def test_rotate_stale_keeps_backup(self, specs, tmp_path):
        journal = RunJournal.for_grid(tmp_path, specs)
        journal.record("close")
        journal.rotate_stale()
        assert not journal.path.exists()
        assert journal.path.with_suffix(".jsonl.bak").exists()


class TestRunnerIntegration:
    def test_fresh_run_writes_and_closes(self, specs, tmp_path):
        runner = ParallelRunner(jobs=1, journal_dir=tmp_path)
        runner.run(specs)
        journals = list(tmp_path.glob("*.jsonl"))
        assert len(journals) == 1
        state = RunJournal(journals[0]).replay()
        assert len(state.completed) == len(specs)
        assert state.closed

    def test_resume_serves_journal_hits(self, specs, tmp_path):
        first = ParallelRunner(jobs=1, journal_dir=tmp_path)
        cold = first.run(specs)
        second = ParallelRunner(jobs=1, journal_dir=tmp_path, resume=True)
        warm = second.run(specs)
        assert [o.status for o in warm] == ["journal"] * len(specs)
        assert [o.result for o in warm] == [o.result for o in cold]
        assert second.last_report.resumed == len(specs)
        assert second.last_report.executed == 0

    def test_partial_journal_runs_only_the_rest(self, specs, tmp_path):
        reference = ParallelRunner(jobs=1).run(specs)
        journal = RunJournal.for_grid(tmp_path, specs)
        # Hand-complete the middle cell, as if the previous run died after it.
        journal.record(
            "done",
            cell=specs[1].fingerprint,
            index=1,
            attempts=1,
            wall_s=0.01,
            events=None,
            source="executed",
            result=reference[1].result,
        )
        runner = ParallelRunner(jobs=1, journal_dir=tmp_path, resume=True)
        outcomes = runner.run(specs)
        assert [o.status for o in outcomes] == ["executed", "journal", "executed"]
        assert [o.result for o in outcomes] == [o.result for o in reference]

    def test_fresh_run_rotates_old_journal(self, specs, tmp_path):
        ParallelRunner(jobs=1, journal_dir=tmp_path).run(specs)
        ParallelRunner(jobs=1, journal_dir=tmp_path).run(specs)
        assert len(list(tmp_path.glob("*.jsonl"))) == 1
        assert len(list(tmp_path.glob("*.jsonl.bak"))) == 1

    def test_quarantined_cell_skipped_on_resume(self, tmp_path):
        poison = selftest_spec(1, fault={"crash_attempts": 99})
        grid = [selftest_spec(0), poison, selftest_spec(2)]
        first = ParallelRunner(jobs=2, journal_dir=tmp_path)
        outcomes = first.run(grid)
        assert outcomes[1].status == "failed" and outcomes[1].quarantined
        second = ParallelRunner(jobs=2, journal_dir=tmp_path, resume=True)
        resumed = second.run(grid)
        # The quarantined cell is not run again.
        assert resumed[1].status == "failed"
        assert resumed[1].quarantined
        assert "quarantined in journal" in resumed[1].error
        assert [o.status for o in (resumed[0], resumed[2])] == ["journal"] * 2
        assert second.last_report.quarantined()[0].label == poison.name


class TestTornTailResume:
    """ENOSPC mid-append: the journal stays a resumable prefix."""

    def test_enospc_torn_line_resumes_cleanly(self, specs, tmp_path):
        import repro.havoc as havoc
        from repro.havoc import HavocEvent, HavocPlan

        reference = ParallelRunner(jobs=1).run(specs)
        journal = RunJournal.for_grid(tmp_path, specs)
        journal.record(
            "done",
            cell=specs[0].fingerprint,
            index=0,
            attempts=1,
            wall_s=0.01,
            events=None,
            source="executed",
            result=reference[0].result,
        )
        # The disk fills mid-append of the second done record: a genuine
        # torn line (prefix + no newline) lands on disk.
        plan = HavocPlan(
            events=(HavocEvent(kind="torn", op="write", scope=".jsonl"),),
            name="torn-journal",
        )
        with havoc.active(plan):
            with pytest.raises(OSError):
                journal.record(
                    "done",
                    cell=specs[1].fingerprint,
                    index=1,
                    attempts=1,
                            wall_s=0.01,
                    events=None,
                    source="executed",
                    result=reference[1].result,
                )
        havoc.deactivate()
        assert not journal.path.read_text().endswith("\n")  # genuinely torn
        state = journal.replay()
        assert state.truncated
        assert set(state.completed) == {specs[0].fingerprint}
        # --resume: the journaled cell is served, the torn one re-runs,
        # and results are bit-identical to the uninterrupted reference.
        runner = ParallelRunner(jobs=1, journal_dir=tmp_path, resume=True)
        outcomes = runner.run(specs)
        assert [o.status for o in outcomes] == ["journal", "executed", "executed"]
        assert [o.result for o in outcomes] == [o.result for o in reference]
        # The resume's own appends terminated the torn line: replay now
        # sees every new record and exactly one skipped torn line.
        final = RunJournal(journal.path, grid=journal.grid).replay()
        assert final.truncated
        assert set(final.completed) == {s.fingerprint for s in specs}
        assert final.closed

    def test_append_after_torn_tail_does_not_merge(self, specs, tmp_path):
        journal = RunJournal.for_grid(tmp_path, specs)
        journal.record("dispatch", cell="a", index=0, attempt=0)
        with open(journal.path, "a") as handle:
            handle.write('{"t":"done","cell":"b","resu')  # torn, no newline
        journal.record("done", cell="c", index=2, result={"v": 3}, attempts=1)
        state = journal.replay()
        # The record appended after the torn line must survive intact.
        assert set(state.completed) == {"c"}
        assert state.truncated

    def test_engine_disables_journal_after_write_failure(self, specs, tmp_path):
        import repro.havoc as havoc
        from repro.havoc import HavocEvent, HavocPlan

        reference = ParallelRunner(jobs=1).run(specs)
        # Every journal append after the header fails: the run must still
        # complete (results unharmed), disabling journalling rather than
        # crashing or padding the file with garbage.
        plan = HavocPlan(
            events=(
                HavocEvent(
                    kind="enospc", op="write", scope=".jsonl", start=1,
                    count=10_000,
                ),
            ),
            name="journal-dead",
        )
        with havoc.active(plan):
            runner = ParallelRunner(jobs=1, journal_dir=tmp_path)
            outcomes = runner.run(specs)
        havoc.deactivate()
        assert [o.result for o in outcomes] == [o.result for o in reference]
        # The journal is a clean parseable prefix (header at least).
        state = RunJournal.for_grid(tmp_path, specs).replay()
        assert state.records >= 1
        assert not state.closed
