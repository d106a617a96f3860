"""How a grid's pending cells get drained: in-process, or one process per cell.

:class:`~repro.runner.engine.ParallelRunner` owns the cache/journal pass,
the retry rule, signal handling, outcome assembly and telemetry. A drain
function owns only where cells run: it takes the queue of unsettled cells
and settles each one through the runner's ``_dispatch``, ``_finalize`` and
``_handle_failure``, polling ``_interrupts`` (``>= 1``: dispatch nothing
new; ``>= 2``: abandon in-flight work). ``jobs`` picks the function:

- :func:`drain_in_process` (``jobs=1``) runs cells serially in the calling
  process, the reference path;
- :func:`drain_subprocesses` (``jobs>=2``) starts one spawned process per
  cell, at most ``jobs`` at a time. Each sends its reply back over a pipe,
  so a crash names its own cell and a timeout kills only that cell's
  process.

Both produce bit-identical results for the same specs (enforced by
``tests/test_executor_conformance.py``): simulations are deterministic per
spec, so where a cell runs can never change what it returns.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Mapping, Optional

from repro.runner.execute import run_task
from repro.runner.journal import RunJournal
from repro.runner.taskspec import TaskSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle broken for typing only
    from repro.runner.engine import ParallelRunner


@dataclass
class Cell:
    """Scheduling state of one not-yet-final cell."""

    index: int
    spec: TaskSpec
    #: Failed attempts so far (0 on the first run, 1 on the re-run).
    attempt: int = 0


def drain_in_process(
    runner: "ParallelRunner",
    pending: Deque[Cell],
    outcomes: List[Any],
    journal: Optional[RunJournal],
) -> None:
    """Run cells one at a time through :func:`run_task`, in this process."""
    while pending and not runner._interrupts:
        cell = pending.popleft()
        payload = runner._dispatch(cell, journal)
        started = time.perf_counter()
        try:
            reply = run_task(payload, in_process=True)
        except Exception as exc:  # injected faults / executor bugs
            runner._handle_failure(
                pending, outcomes, cell, time.perf_counter() - started, journal,
                kind="error", error=repr(exc),
            )
            continue
        runner._finalize(outcomes, cell, reply, journal)


def _run_child(payload: Mapping[str, Any], writer: Connection) -> None:
    """Cell process body: run one cell and send back its reply or error text.

    SIGINT is ignored: a terminal's Ctrl-C reaches the whole process group,
    and draining in-flight cells is the runner's decision.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        message = ("reply", run_task(payload))
    except Exception as exc:
        message = ("error", repr(exc))
    writer.send(message)
    writer.close()


@dataclass
class _Flight:
    cell: Cell
    process: BaseProcess
    started: float


def drain_subprocesses(
    runner: "ParallelRunner",
    pending: Deque[Cell],
    outcomes: List[Any],
    journal: Optional[RunJournal],
) -> None:
    """Run each cell in its own spawned process, at most ``runner.jobs`` at once."""
    context = multiprocessing.get_context("spawn")
    running: Dict[Connection, _Flight] = {}
    try:
        while pending or running:
            if runner._interrupts >= 2:
                return  # abandon: in-flight cells stay unfinished
            while pending and not runner._interrupts and len(running) < runner.jobs:
                cell = pending.popleft()
                reader, writer = context.Pipe(duplex=False)
                process = context.Process(
                    target=_run_child, args=(runner._dispatch(cell, journal), writer)
                )
                # Block SIGINT while the child starts: it inherits the mask,
                # so a Ctrl-C before it ignores the signal stays pending.
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    process.start()
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                writer.close()
                running[reader] = _Flight(cell, process, time.monotonic())
            if not running:
                return  # drained
            for reader in wait(list(running), timeout=0.1):
                flight = running.pop(reader)
                # Read before joining: a large reply fills the pipe buffer,
                # and the child cannot exit until it is read.
                try:
                    status, body = reader.recv()
                except EOFError:
                    status, body = "crash", None
                reader.close()
                flight.process.join()
                if status == "reply":
                    runner._finalize(outcomes, flight.cell, body, journal)
                    continue
                if status == "crash":
                    body = f"cell process died (exit code {flight.process.exitcode})"
                runner._handle_failure(
                    pending, outcomes, flight.cell, time.monotonic() - flight.started,
                    journal, kind=status, error=body,
                )
            if runner.timeout is None:
                continue
            now = time.monotonic()
            for reader, flight in list(running.items()):
                if now - flight.started > runner.timeout:
                    del running[reader]
                    flight.process.kill()
                    flight.process.join()
                    reader.close()
                    runner._handle_failure(
                        pending, outcomes, flight.cell, now - flight.started, journal,
                        kind="hang", error=f"timed out after {runner.timeout}s",
                    )
    finally:
        for reader, flight in running.items():
            flight.process.kill()
            flight.process.join()
            reader.close()
