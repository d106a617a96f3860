"""``repro.runner`` — parallel experiment execution with result caching.

The layer between the simulator and every experiment driver above it:

- :class:`TaskSpec` — canonical, hashable description of one cell
  (:func:`comparison_spec`, :func:`construction_spec`,
  :func:`wake_interval_spec`, :func:`network_size_spec`,
  :func:`selftest_spec` build them);
- :class:`ResultCache` — content-addressed on-disk JSON cache, invalidated
  by any config change or a ``repro`` version bump;
- :class:`ParallelRunner` — one spawned process per cell, at most ``jobs``
  at a time, with a per-cell timeout, one immediate re-run of a failed
  attempt, quarantine of cells that crash or hang twice, and deterministic
  result ordering (``jobs=1`` runs cells in-process, the reference path);
- :class:`RunJournal` — append-only JSONL manifest keyed by the grid
  fingerprint: every dispatch/completion/failure is durably recorded, so a
  grid killed hard resumes exactly where it stopped;
- :class:`RunnerReport` / :class:`CellTelemetry` — cells
  executed/cached/resumed/failed, the quarantined-cell list, sim-vs-wall
  time, aggregate throughput.

Usage::

    from repro.runner import ParallelRunner, ResultCache, comparison_spec
    specs = [comparison_spec("tele", seed=s) for s in range(1, 6)]
    runner = ParallelRunner(
        jobs=4, cache=ResultCache(".repro-cache"),
        journal_dir=".repro-journal", resume=True,
    )
    outcomes = runner.run(specs)
    print(runner.last_report.summary_table())
"""

from repro.runner.cache import ResultCache
from repro.runner.engine import ParallelRunner, RunnerOutcome, resolve_jobs
from repro.runner.execute import InjectedFault, execute_spec, run_task
from repro.runner.journal import (
    JOURNAL_SCHEMA,
    JournalState,
    RunJournal,
    grid_fingerprint,
)
from repro.runner.taskspec import (
    SPEC_SCHEMA,
    TaskSpec,
    canonical_json,
    chaos_spec,
    comparison_spec,
    construction_spec,
    fingerprint_of,
    lora_spec,
    network_size_spec,
    scale_spec,
    selftest_spec,
    soak_spec,
    wake_interval_spec,
)
from repro.runner.telemetry import CellTelemetry, RunnerReport

__all__ = [
    "JOURNAL_SCHEMA",
    "SPEC_SCHEMA",
    "CellTelemetry",
    "InjectedFault",
    "JournalState",
    "ParallelRunner",
    "ResultCache",
    "RunJournal",
    "RunnerOutcome",
    "RunnerReport",
    "TaskSpec",
    "grid_fingerprint",
    "canonical_json",
    "chaos_spec",
    "comparison_spec",
    "construction_spec",
    "execute_spec",
    "fingerprint_of",
    "lora_spec",
    "network_size_spec",
    "resolve_jobs",
    "run_task",
    "scale_spec",
    "selftest_spec",
    "soak_spec",
    "wake_interval_spec",
]
