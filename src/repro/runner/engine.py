"""The experiment scheduler: cache/journal pass, one retry rule, telemetry.

:class:`ParallelRunner` settles a grid of
:class:`~repro.runner.taskspec.TaskSpec` cells, keeping every cross-cutting
concern here and leaving only where cells run to a drain function in
:mod:`repro.runner.executors`:

- a result cache consulted before any simulation happens;
- an optional **run journal** (:mod:`repro.runner.journal`): every
  dispatch/completion/failure is durably appended, so a grid killed hard
  (SIGKILL, OOM, reboot) resumes where it stopped — completed cells are
  served from the journal bit-identically, in-flight ones re-run;
- one retry rule: every failed attempt (an exception, a crash, a timeout)
  gets exactly one immediate re-run, and a second failure is final. A cell
  that crashed or timed out twice is quarantined in the journal;
- graceful shutdown: with ``handle_signals=True``, the first
  SIGINT/SIGTERM drains in-flight cells and journals the rest as
  interrupted (resumable); a second signal abandons in-flight work
  immediately. Either way the journal and telemetry are flushed;
- deterministic result ordering: outcomes come back in spec order no matter
  what order cells finished in.

``jobs`` alone picks where cells run: ``jobs=1`` in the calling process
(:func:`~repro.runner.executors.drain_in_process`, the reference path),
``jobs=N`` in one spawned process per cell, at most N at a time
(:func:`~repro.runner.executors.drain_subprocesses`, with the per-cell
timeout), and ``jobs=0`` auto-detects ``os.cpu_count()``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.runner.cache import ResultCache
from repro.runner.execute import sim_seconds_estimate
from repro.runner.executors import Cell, drain_in_process, drain_subprocesses
from repro.runner.journal import JournalState, RunJournal
from repro.runner.taskspec import TaskSpec
from repro.runner.telemetry import CellTelemetry, RunnerReport

#: Signature of a progress sink: ``(category, message, **data)`` — matches
#: :meth:`repro.sim.trace.Tracer.emit`, so a Tracer can be plugged directly.
ProgressSink = Callable[..., None]


def resolve_jobs(jobs: int) -> int:
    """Resolve a ``--jobs`` request: ``0`` means auto-detect the CPU count.

    The resolved value is what lands in telemetry — auto-detection is
    never silent.
    """
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = auto-detect cpu count)")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclass
class RunnerOutcome:
    """One cell's final disposition, in spec order."""

    spec: TaskSpec
    #: The executor's result payload, or None if the cell failed.
    result: Optional[Dict[str, Any]]
    #: "executed" | "cached" | "journal" | "failed" | "interrupted"
    status: str
    attempts: int = 1
    wall_s: float = 0.0
    error: Optional[str] = None
    #: Kernel events dispatched by the cell (None when the executor doesn't
    #: report one, or for cached/failed cells).
    events: Optional[int] = None
    #: Crashed or timed out on both attempts: quarantined in the journal,
    #: skipped on resume.
    quarantined: bool = False

    @property
    def ok(self) -> bool:
        """True when the cell produced a result (fresh, cached, or journal)."""
        return self.result is not None


class ParallelRunner:
    """Run a grid of task specs with caching, journaling, and telemetry."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        progress: Optional[ProgressSink] = None,
        journal_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        handle_signals: bool = False,
    ) -> None:
        #: The requested value (0 = auto); ``jobs`` below is the resolved one.
        self.jobs_requested = jobs
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.timeout = timeout
        self.progress = progress
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.resume = resume
        self.handle_signals = handle_signals
        #: Where cells run, as telemetry names it.
        self.executor = "in-process" if self.jobs == 1 else "subprocess"
        self.last_report: Optional[RunnerReport] = None
        self._interrupts = 0
        self._journal_broken = False

    # ------------------------------------------------------------- internals
    def _emit(self, message: str, **data: Any) -> None:
        if self.progress is not None:
            self.progress("runner", message, **data)

    def _from_cache(self, spec: TaskSpec) -> Optional[Dict[str, Any]]:
        if self.cache is None:
            return None
        return self.cache.load(spec)

    def _store(self, spec: TaskSpec, result: Dict[str, Any]) -> None:
        if self.cache is None:
            return
        try:
            self.cache.store(spec, result)
        except OSError as exc:
            # A full disk must not fail a cell that already computed a
            # correct result: the cache degrades to re-execution on the
            # next run, the grid keeps its answer.
            self._emit(
                f"cache store failed for {spec.name} (degrading): {exc}",
                cell=spec.name,
                error=repr(exc),
            )

    def _journal(
        self, journal: Optional[RunJournal], record_kind: str, **fields: Any
    ) -> None:
        if journal is None or self._journal_broken:
            return
        try:
            journal.record(record_kind, **fields)
        except OSError as exc:
            # Fail closed: stop journaling entirely rather than appending
            # after a torn line (replay only tolerates a torn *tail*). The
            # grid completes with correct results; a later --resume simply
            # re-runs whatever the truncated journal no longer proves.
            self._journal_broken = True
            self._emit(
                f"journal write failed ({exc}); disabling journal for this "
                "run — results remain correct, resume will re-run unproven "
                "cells",
                error=repr(exc),
            )

    def _open_journal(
        self, specs: Sequence[TaskSpec], resume: Optional[Union[RunJournal, str, Path]]
    ) -> Tuple[Optional[RunJournal], Optional[JournalState]]:
        """Resolve the journal (if any) and the state to resume from.

        An explicitly passed ``resume`` journal (or path) always replays.
        Otherwise ``journal_dir`` selects the grid's canonical journal:
        replayed when the runner was built with ``resume=True``, rotated
        aside (fresh start, old file kept as ``.bak``) when not.
        """
        if resume is not None:
            journal = (
                resume if isinstance(resume, RunJournal) else RunJournal(resume)
            )
            return journal, journal.replay()
        if self.journal_dir is None:
            return None, None
        journal = RunJournal.for_grid(self.journal_dir, specs)
        if self.resume:
            return journal, journal.replay()
        journal.rotate_stale()
        return journal, None

    @contextmanager
    def _signal_guard(self) -> Iterator[None]:
        """Count SIGINT/SIGTERM instead of dying (main thread + opt-in only).

        First signal: drain — finish in-flight cells, dispatch nothing new,
        journal the rest as interrupted. Second signal: abandon in-flight
        work immediately (it re-runs on resume).
        """
        if (
            not self.handle_signals
            or threading.current_thread() is not threading.main_thread()
        ):
            yield
            return
        previous: Dict[int, Any] = {}

        def handler(signum: int, frame: Any) -> None:
            self._interrupts += 1
            mode = "draining in-flight cells" if self._interrupts == 1 else "abandoning"
            self._emit(f"signal {signum}: {mode}", signum=signum)

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, handler)
        try:
            yield
        finally:
            for signum, old in previous.items():
                signal.signal(signum, old)

    # ------------------------------------------------------------------- run
    def run(
        self,
        specs: Sequence[TaskSpec],
        resume: Optional[Union[RunJournal, str, Path]] = None,
    ) -> List[RunnerOutcome]:
        """Execute every spec; outcomes are returned in spec order.

        ``resume`` (a :class:`RunJournal` or journal path) replays a prior
        run of this grid: completed cells are served from the journal,
        quarantined ones fail immediately, everything else executes.
        """
        started = time.perf_counter()
        self._interrupts = 0
        self._journal_broken = False
        if self.jobs_requested == 0:
            self._emit(
                f"jobs auto-detected: {self.jobs} (os.cpu_count)", jobs=self.jobs
            )
        if self.cache is not None and getattr(self.cache, "progress", None) is None:
            self.cache.progress = self.progress
        journal, replayed = self._open_journal(specs, resume)
        outcomes: List[Optional[RunnerOutcome]] = [None] * len(specs)

        with self._signal_guard():
            # Journal + cache pass first: settled cells never occupy a worker.
            pending: Deque[Cell] = deque()
            for index, spec in enumerate(specs):
                fingerprint = spec.fingerprint
                record = replayed.completed.get(fingerprint) if replayed else None
                if record is not None:
                    outcomes[index] = RunnerOutcome(
                        spec,
                        record.get("result"),
                        "journal",
                        attempts=int(record.get("attempts", 1)),
                        wall_s=float(record.get("wall_s", 0.0)),
                        events=record.get("events"),
                    )
                    self._emit(
                        f"journal {spec.name}", cell=spec.name, status="journal"
                    )
                    continue
                record = replayed.quarantined.get(fingerprint) if replayed else None
                if record is not None:
                    outcomes[index] = RunnerOutcome(
                        spec,
                        None,
                        "failed",
                        attempts=int(record.get("attempts", 1)),
                        error=(record.get("error") or "poison cell")
                        + " [quarantined in journal]",
                        quarantined=True,
                    )
                    self._emit(
                        f"quarantined {spec.name} (journal)",
                        cell=spec.name,
                        status="failed",
                    )
                    continue
                cached = self._from_cache(spec)
                if cached is not None:
                    outcomes[index] = RunnerOutcome(spec, cached, "cached")
                    self._journal(
                        journal,
                        "done",
                        cell=fingerprint,
                        index=index,
                        attempts=0,
                        wall_s=0.0,
                        events=None,
                        source="cached",
                        result=cached,
                    )
                    self._emit(f"cached {spec.name}", cell=spec.name, status="cached")
                else:
                    pending.append(Cell(index, spec))

            if pending and self._interrupts == 0:
                drain = drain_in_process if self.jobs == 1 else drain_subprocesses
                drain(self, pending, outcomes, journal)

        interrupted = 0
        for index, spec in enumerate(specs):
            if outcomes[index] is None:
                interrupted += 1
                outcomes[index] = RunnerOutcome(
                    spec,
                    None,
                    "interrupted",
                    attempts=0,
                    error="interrupted before completion"
                    + (" (resumable from the run journal)" if journal else ""),
                )
        if interrupted:
            self._journal(
                journal,
                "interrupt",
                mode="abandon" if self._interrupts >= 2 else "drain",
                unfinished=interrupted,
            )
        else:
            self._journal(journal, "close", cells=len(specs))

        final = [o for o in outcomes if o is not None]
        assert len(final) == len(specs)
        self.last_report = self._report(
            final, time.perf_counter() - started, journal
        )
        self._emit(self.last_report.summary_line(), **self.last_report.counters())
        return final

    def results(self, specs: Sequence[TaskSpec]) -> List[Optional[Dict[str, Any]]]:
        """Convenience: :meth:`run`, reduced to the raw result payloads."""
        return [outcome.result for outcome in self.run(specs)]

    # ----------------------------------------------------------- disposition
    def _dispatch(self, cell: Cell, journal: Optional[RunJournal]) -> Dict[str, Any]:
        """Announce and journal one attempt; returns :func:`run_task`'s payload."""
        self._emit(f"run {cell.spec.name}", cell=cell.spec.name, attempt=cell.attempt)
        self._journal(
            journal,
            "dispatch",
            cell=cell.spec.fingerprint,
            index=cell.index,
            attempt=cell.attempt,
        )
        return {"spec": cell.spec.to_dict(), "attempt": cell.attempt}

    def _finalize(
        self,
        outcomes: List[Optional[RunnerOutcome]],
        cell: Cell,
        reply: Dict[str, Any],
        journal: Optional[RunJournal],
    ) -> None:
        outcomes[cell.index] = RunnerOutcome(
            cell.spec,
            reply["result"],
            "executed",
            attempts=cell.attempt + 1,
            wall_s=reply["wall_s"],
            events=reply.get("events"),
        )
        self._store(cell.spec, reply["result"])
        self._journal(
            journal,
            "done",
            cell=cell.spec.fingerprint,
            index=cell.index,
            attempts=cell.attempt + 1,
            wall_s=reply["wall_s"],
            events=reply.get("events"),
            source="executed",
            result=reply["result"],
        )
        self._emit(
            f"done {cell.spec.name}", cell=cell.spec.name, wall_s=reply["wall_s"]
        )

    def _handle_failure(
        self,
        pending: Deque[Cell],
        outcomes: List[Optional[RunnerOutcome]],
        cell: Cell,
        wall: float,
        journal: Optional[RunJournal],
        kind: str,
        error: str,
    ) -> None:
        """Re-run a cell's first failure at once; its second is final.

        ``kind`` is "error" (the cell raised), "crash" (its process died
        with no reply) or "hang" (killed at the timeout). A final crash or
        hang is quarantined in the journal, so a resumed grid skips it.
        """
        name = cell.spec.name
        fingerprint = cell.spec.fingerprint
        if cell.attempt == 0:
            self._journal(
                journal, "attempt", cell=fingerprint, attempt=0, kind=kind, error=error
            )
            self._emit(f"retry {name}: {error}", cell=name, attempt=1, kind=kind)
            cell.attempt = 1
            pending.appendleft(cell)
            return
        quarantined = kind in ("crash", "hang")
        outcomes[cell.index] = RunnerOutcome(
            cell.spec,
            None,
            "failed",
            attempts=cell.attempt + 1,
            wall_s=wall,
            error=error,
            quarantined=quarantined,
        )
        self._journal(
            journal,
            "quarantine" if quarantined else "failed",
            cell=fingerprint,
            index=cell.index,
            attempts=cell.attempt + 1,
            kind=kind,
            error=error,
        )
        self._emit(
            f"failed {name}: {error}",
            cell=name,
            status="failed",
            kind=kind,
            quarantined=quarantined,
        )

    # ------------------------------------------------------------- reporting
    def _report(
        self,
        outcomes: List[RunnerOutcome],
        wall_s: float,
        journal: Optional[RunJournal],
    ) -> RunnerReport:
        report = RunnerReport(
            jobs=self.jobs,
            executor=self.executor,
            jobs_requested=self.jobs_requested,
            wall_s=wall_s,
            journal=str(journal.path) if journal is not None else None,
        )
        for index, outcome in enumerate(outcomes):
            report.cells.append(
                CellTelemetry(
                    index=index,
                    label=outcome.spec.name,
                    kind=outcome.spec.kind,
                    fingerprint=outcome.spec.fingerprint,
                    status=outcome.status,
                    attempts=outcome.attempts,
                    wall_s=outcome.wall_s,
                    sim_s=(
                        sim_seconds_estimate(outcome.spec)
                        if outcome.status == "executed"
                        else 0.0
                    ),
                    error=outcome.error,
                    events=outcome.events if outcome.status == "executed" else None,
                    quarantined=outcome.quarantined,
                )
            )
        return report
