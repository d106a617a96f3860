"""Pluggable cell executors: *how* a grid's pending cells get drained.

:class:`~repro.runner.engine.ParallelRunner` is the **scheduler**: it owns
the cache/journal pass, retry policy, signal handling, outcome assembly,
and telemetry. The executor owns only the execution strategy — it receives
the queue of not-yet-settled cells and drives each one to a final
disposition through the scheduler's callbacks
(``scheduler._finalize`` / ``scheduler._handle_failure``):

- :class:`InProcessExecutor` — cells run serially in the calling process
  (the historical ``jobs=1`` path, bit-identical to the original drivers);
- :class:`LocalPoolExecutor` — cells fan out over a spawn-context
  ``ProcessPoolExecutor`` with crash containment, honest attribution, and
  the heartbeat watchdog (the historical ``jobs=N`` path).

Both produce bit-identical results for the same specs (enforced by
``tests/test_executor_conformance.py``): simulations are deterministic per
spec, so *where* a cell runs can never change *what* it returns.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    List,
    Optional,
    Set,
)

from repro.runner.execute import run_task
from repro.runner.journal import RunJournal
from repro.runner.taskspec import TaskSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle broken for typing only
    from repro.runner.engine import ParallelRunner


@dataclass
class Cell:
    """Mutable scheduling state of one not-yet-final cell.

    Shared vocabulary between the scheduler and every executor: ``attempt``
    counts failed attempts charged against the retry budget, ``requeues``
    counts innocent re-dispatches (pool rebuilds) that do *not* burn it, and ``not_before`` is the backoff gate.
    """

    index: int
    spec: TaskSpec
    #: Failed attempts charged so far (the retry budget consumed).
    attempt: int = 0
    #: Innocent pool-rebuild requeues suffered (budget NOT consumed).
    requeues: int = 0
    #: Monotonic time before which the cell must not be dispatched (backoff).
    not_before: float = 0.0


#: Sentinel meaning "no heartbeat progress sample read yet".
_NO_PROGRESS = object()


@dataclass
class _Flight:
    """One submitted future's bookkeeping."""

    cell: Cell
    deadline: float
    submitted: float
    heartbeat: Optional[str] = None
    progress: Any = _NO_PROGRESS
    progress_at: float = 0.0


class CellExecutor:
    """The executor contract the scheduler drives.

    An executor drains ``pending`` until every cell reached a final
    disposition (or the scheduler was interrupted), calling back into the
    scheduler for every settlement so caching, journaling, retry
    accounting, and telemetry stay centralised:

    - ``scheduler._finalize(outcomes, cell, reply, journal)`` for success;
    - ``scheduler._handle_failure(pending, outcomes, cell, wall, journal,
      kind=..., ...)`` for errors/crashes/hangs (it re-queues or fails);
    - ``scheduler._interrupts`` must be polled — ``>= 1`` means stop
      dispatching new cells, ``>= 2`` means abandon in-flight work.

    ``name`` lands in :class:`~repro.runner.telemetry.RunnerReport` and
    ``slots`` is the executor's parallelism (the telemetry ``jobs`` value).
    """

    name = "abstract"

    @property
    def slots(self) -> int:
        """Worker slots this executor runs cells on (telemetry only)."""
        return 1

    def drain(
        self,
        scheduler: "ParallelRunner",
        pending: Deque[Cell],
        outcomes: List[Any],
        journal: Optional[RunJournal],
    ) -> None:
        raise NotImplementedError


# ------------------------------------------------------------------- serial

class InProcessExecutor(CellExecutor):
    """Serial execution in the calling process — the ``jobs=1`` path.

    No pool, no pickling, no watchdog: cells run through the very same
    :func:`~repro.runner.execute.run_task` the workers use, one at a time,
    so results are bit-identical to every other executor and the historical
    serial drivers.
    """

    name = "in-process"

    def drain(
        self,
        scheduler: "ParallelRunner",
        pending: Deque[Cell],
        outcomes: List[Any],
        journal: Optional[RunJournal],
    ) -> None:
        while pending:
            if scheduler._interrupts:
                return
            cell = pending.popleft()
            wait_s = cell.not_before - time.monotonic()
            if wait_s > 0 and not scheduler._sleep_interruptible(wait_s):
                pending.appendleft(cell)
                return
            scheduler._emit(
                f"run {cell.spec.name}", cell=cell.spec.name, attempt=cell.attempt
            )
            scheduler._journal(
                journal,
                "dispatch",
                cell=cell.spec.fingerprint,
                index=cell.index,
                attempt=cell.attempt,
            )
            cell_started = time.perf_counter()
            try:
                reply = run_task(
                    {"spec": cell.spec.to_dict(), "attempt": cell.attempt},
                    in_process=True,
                )
            except Exception as exc:  # injected faults / executor bugs
                scheduler._handle_failure(
                    pending,
                    outcomes,
                    cell,
                    time.perf_counter() - cell_started,
                    journal,
                    kind="error",
                    exc=exc,
                )
                continue
            scheduler._finalize(outcomes, cell, reply, journal)


# ------------------------------------------------------------------- pooled

class LocalPoolExecutor(CellExecutor):
    """Process-pool execution on the local machine — the ``jobs=N`` path.

    Carries over the engine's full battle kit: bounded in-flight window,
    per-cell timeout, heartbeat watchdog, crash containment with
    one-at-a-time suspect isolation after ambiguous pool breaks, and
    innocent-bystander requeues that never burn the retry budget.
    """

    name = "local-pool"
    #: Workers start fresh interpreters: no state leaks in from the parent.
    MP_CONTEXT = "spawn"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    @property
    def slots(self) -> int:
        return self.jobs

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=multiprocessing.get_context(self.MP_CONTEXT),
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Forcibly stop a pool whose workers may be hung or dead."""
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.kill()
            except Exception:  # already gone
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _pick(
        self,
        pending: Deque[Cell],
        suspects: Set[str],
        in_flight: Dict[Future, _Flight],
        now: float,
    ) -> Optional[Cell]:
        """Next dispatchable cell, honouring backoff and crash isolation.

        While ``suspects`` is non-empty (a pool break with ambiguous
        attribution), cells are dispatched one at a time so the next break
        unambiguously names its offender.
        """
        if suspects and not any(
            c.spec.fingerprint in suspects for c in pending
        ):
            suspects.clear()  # every suspect reached a final disposition
        restrict = bool(suspects)
        if restrict and in_flight:
            return None
        for position, cell in enumerate(pending):
            if restrict and cell.spec.fingerprint not in suspects:
                continue
            if cell.not_before > now:
                if restrict:
                    return None  # keep isolation strict even across backoff
                continue
            del pending[position]
            return cell
        return None

    def _submit_ready(
        self,
        scheduler: "ParallelRunner",
        pool: ProcessPoolExecutor,
        pending: Deque[Cell],
        in_flight: Dict[Future, _Flight],
        suspects: Set[str],
        heartbeat_dir: Optional[str],
        heartbeat_s: float,
        journal: Optional[RunJournal],
    ) -> ProcessPoolExecutor:
        while pending and len(in_flight) < self.jobs:
            now = time.monotonic()
            cell = self._pick(pending, suspects, in_flight, now)
            if cell is None:
                break
            deadline = (
                now + scheduler.timeout
                if scheduler.timeout is not None
                else float("inf")
            )
            payload: Dict[str, Any] = {
                "spec": cell.spec.to_dict(),
                "attempt": cell.attempt,
            }
            heartbeat_path = None
            if heartbeat_dir is not None:
                heartbeat_path = os.path.join(
                    heartbeat_dir, f"hb-{cell.index}-{cell.attempt}.json"
                )
                payload["heartbeat"] = heartbeat_path
                payload["heartbeat_s"] = heartbeat_s
            scheduler._emit(
                f"run {cell.spec.name}", cell=cell.spec.name, attempt=cell.attempt
            )
            scheduler._journal(
                journal,
                "dispatch",
                cell=cell.spec.fingerprint,
                index=cell.index,
                attempt=cell.attempt,
            )
            try:
                future = pool.submit(run_task, payload)
            except BrokenProcessPool:
                # The pool died between completions. If futures are still in
                # flight their breakage is handled by the main loop;
                # otherwise rebuild right here so the loop can't spin.
                pending.appendleft(cell)
                if not in_flight:
                    self._kill_pool(pool)
                    pool = self._new_pool()
                break
            in_flight[future] = _Flight(
                cell, deadline, now, heartbeat_path, _NO_PROGRESS, now
            )
        return pool

    def _watchdog_verdict(
        self, scheduler: "ParallelRunner", flight: _Flight, now: float
    ) -> Optional[str]:
        """Why this flight should be killed, or None while it looks alive.

        Distinguishes the failure modes: *no heartbeat file* / *stale
        heartbeat* means the worker is dead or frozen; *fresh heartbeat
        with flat progress* means the simulation itself is hung.
        """
        window = scheduler.watchdog
        assert window is not None and flight.heartbeat is not None
        try:
            stat = os.stat(flight.heartbeat)
        except OSError:
            # Spawned workers import the package before the first beat;
            # give them a doubled grace window to appear at all.
            if now - flight.submitted > 2 * window:
                return (
                    f"no heartbeat within {2 * window:.1f}s of dispatch "
                    "(worker presumed dead)"
                )
            return None
        staleness = time.time() - stat.st_mtime
        if staleness > window:
            return f"heartbeat lost for {staleness:.1f}s (worker hung or dead)"
        try:
            beat = json.loads(Path(flight.heartbeat).read_text())
        except (OSError, ValueError):  # racing the atomic replace
            return None
        progress = (beat.get("events"), beat.get("sim_t"))
        if flight.progress is _NO_PROGRESS or progress != flight.progress:
            flight.progress = progress
            flight.progress_at = now
            return None
        if now - flight.progress_at > window:
            return (
                f"stalled: no simulator progress for "
                f"{now - flight.progress_at:.1f}s (hung cell)"
            )
        return None

    def drain(
        self,
        scheduler: "ParallelRunner",
        pending: Deque[Cell],
        outcomes: List[Any],
        journal: Optional[RunJournal],
    ) -> None:
        pool = self._new_pool()
        in_flight: Dict[Future, _Flight] = {}
        suspects: Set[str] = set()
        heartbeat_dir = (
            tempfile.mkdtemp(prefix="repro-heartbeat-")
            if scheduler.watchdog is not None
            else None
        )
        heartbeat_s = min(1.0, (scheduler.watchdog or 4.0) / 4.0)
        tick = (
            0.1
            if scheduler.timeout is None
            else min(0.1, scheduler.timeout / 4)
        )
        try:
            while pending or in_flight:
                if scheduler._interrupts >= 2:
                    return  # abandon: in-flight cells stay unfinished
                if scheduler._interrupts == 0:
                    pool = self._submit_ready(
                        scheduler, pool, pending, in_flight, suspects,
                        heartbeat_dir, heartbeat_s, journal,
                    )
                elif not in_flight:
                    return  # drained
                if not in_flight:
                    # Every dispatchable cell is backing off; nap briefly.
                    soonest = min(cell.not_before for cell in pending)
                    time.sleep(
                        min(max(soonest - time.monotonic(), 0.0), 0.25) or 0.01
                    )
                    continue

                done, _ = wait(in_flight, timeout=tick, return_when=FIRST_COMPLETED)
                broken: List[_Flight] = []
                for future in done:
                    flight = in_flight.pop(future)
                    cell = flight.cell
                    exc = future.exception()
                    if exc is None:
                        scheduler._finalize(outcomes, cell, future.result(), journal)
                        suspects.discard(cell.spec.fingerprint)
                    elif isinstance(exc, BrokenProcessPool):
                        broken.append(flight)
                    else:
                        scheduler._handle_failure(
                            pending,
                            outcomes,
                            cell,
                            time.monotonic() - flight.submitted,
                            journal,
                            kind="error",
                            exc=exc,
                        )
                        if outcomes[cell.index] is not None:
                            suspects.discard(cell.spec.fingerprint)

                if broken:
                    # Everything still in flight shares the dead pool.
                    casualties = broken + list(in_flight.values())
                    in_flight.clear()
                    self._kill_pool(pool)
                    now = time.monotonic()
                    if len(casualties) == 1:
                        # Sole occupant: attribution is certain — charge it.
                        flight = casualties[0]
                        scheduler._handle_failure(
                            pending,
                            outcomes,
                            flight.cell,
                            now - flight.submitted,
                            journal,
                            kind="crash",
                            error="worker process died (BrokenProcessPool)",
                        )
                    else:
                        # Ambiguous: requeue everyone without burning budget
                        # and isolate; the next break names its offender.
                        for flight in sorted(
                            casualties, key=lambda f: f.cell.index, reverse=True
                        ):
                            cell = flight.cell
                            cell.requeues += 1
                            suspects.add(cell.spec.fingerprint)
                            scheduler._journal(
                                journal,
                                "requeue",
                                cell=cell.spec.fingerprint,
                                requeues=cell.requeues,
                                reason="pool broken (sibling worker died)",
                            )
                            scheduler._emit(
                                f"requeue {cell.spec.name} (pool broken, "
                                "isolating suspects)",
                                cell=cell.spec.name,
                            )
                            pending.appendleft(cell)
                    pool = self._new_pool()
                    continue

                now = time.monotonic()
                expired: Dict[Future, str] = {}
                for future, flight in in_flight.items():
                    if now > flight.deadline:
                        expired[future] = f"timed out after {scheduler.timeout}s"
                    elif heartbeat_dir is not None and flight.heartbeat:
                        verdict = self._watchdog_verdict(scheduler, flight, now)
                        if verdict is not None:
                            expired[future] = verdict
                if expired:
                    # There is no portable way to interrupt one worker, so
                    # the pool dies; offenders are charged, innocent
                    # bystanders are re-queued without burning budget.
                    self._kill_pool(pool)
                    for future, flight in in_flight.items():
                        cell = flight.cell
                        if future in expired:
                            scheduler._handle_failure(
                                pending,
                                outcomes,
                                cell,
                                now - flight.submitted,
                                journal,
                                kind="hang",
                                error=expired[future],
                            )
                        else:
                            cell.requeues += 1
                            scheduler._journal(
                                journal,
                                "requeue",
                                cell=cell.spec.fingerprint,
                                requeues=cell.requeues,
                                reason="pool restarted (sibling killed)",
                            )
                            scheduler._emit(
                                f"requeue {cell.spec.name} (pool restarted)",
                                cell=cell.spec.name,
                            )
                            pending.appendleft(cell)
                    in_flight.clear()
                    pool = self._new_pool()
        finally:
            self._kill_pool(pool)
            if heartbeat_dir is not None:
                shutil.rmtree(heartbeat_dir, ignore_errors=True)
