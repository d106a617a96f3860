"""The run journal: an append-only manifest that makes grids resumable.

One journal file per *grid* — a JSONL manifest named by the grid
fingerprint (hash of the ordered cell fingerprints), living under a ``journal_dir``. Every state transition of every cell is
appended as one JSON line and fsynced, so after a SIGKILL / OOM / reboot
the journal is an exact prefix of the run:

- ``open``      — grid metadata (cell count, versions), written once;
- ``dispatch``  — a cell attempt started (attempt number included);
- ``done``      — a cell completed; the record carries the **full result
  payload**, so resume never depends on the result cache being intact;
- ``attempt``   — a failed first attempt, re-run at once (error kind + text);
- ``failed``    — a cell raised on its re-run too;
- ``quarantine`` — a cell whose process crashed or timed out twice: a
  resumed grid reports it failed immediately instead of running it again;
- ``interrupt`` / ``close`` — how the run ended.

:meth:`RunJournal.replay` folds the record stream into a
:class:`JournalState`; a torn final line (the crash happened mid-append)
is tolerated and ignored. ``ParallelRunner.run(..., resume=journal)`` then
skips completed cells (serving their journaled results bit-identically),
skips quarantined ones, and re-runs everything else — including cells that
were in flight when the previous run died.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Set, Union

from repro.havoc import fs as havocfs
from repro.runner.taskspec import TaskSpec, fingerprint_of
from repro.sim.simulator import KERNEL_BEHAVIOR_VERSION
from repro.version import __version__

#: Bump when the journal record format changes incompatibly; folded into
#: the grid fingerprint so old journals become unreachable, not misread.
JOURNAL_SCHEMA = 1


def grid_fingerprint(specs: Sequence[TaskSpec]) -> str:
    """Content hash identifying one grid: its ordered cells.

    ``jobs`` is deliberately excluded — the engine guarantees results are
    identical across worker counts, so a grid journaled at ``jobs=4`` may
    be resumed at ``jobs=1`` (or vice versa).
    """
    return fingerprint_of(
        {
            "schema": JOURNAL_SCHEMA,
            "cells": [spec.fingerprint for spec in specs],
        }
    )


@dataclass
class JournalState:
    """What a replayed journal says about a grid."""

    grid: Optional[str] = None
    #: fingerprint -> the full ``done`` record (result payload included).
    completed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: fingerprint -> the ``quarantine`` record (error + attempts).
    quarantined: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: fingerprint -> the final ``failed`` record (informational: failed
    #: cells are re-run on resume, quarantined ones are not).
    failed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Cells dispatched but never finished — in flight at the crash.
    in_flight: Set[str] = field(default_factory=set)
    #: Records successfully parsed.
    records: int = 0
    #: True when the file ended in a torn (unparseable) line.
    truncated: bool = False
    interrupted: bool = False
    closed: bool = False


class RunJournal:
    """Append-only JSONL journal for one grid.

    Each :meth:`record` opens, appends, flushes, fsyncs, and closes — no
    dangling handle survives a crash, and every acknowledged record is
    durable. Grids are coarse (seconds per cell), so the per-record fsync
    is noise next to a simulation.
    """

    def __init__(self, path: Union[str, Path], grid: Optional[str] = None) -> None:
        self.path = Path(path)
        self.grid = grid
        self.records_written = 0

    @classmethod
    def for_grid(
        cls,
        journal_dir: Union[str, Path],
        specs: Sequence[TaskSpec],
    ) -> "RunJournal":
        """The canonical journal for this grid under ``journal_dir``."""
        grid = grid_fingerprint(specs)
        return cls(Path(journal_dir) / f"{grid}.jsonl", grid)

    # -------------------------------------------------------------- writing
    def rotate_stale(self) -> None:
        """Move an existing journal aside (a fresh, non-resume run starts).

        The old file is kept as ``*.jsonl.bak`` rather than deleted, so an
        accidental fresh start doesn't destroy a resumable run.
        """
        if self.path.exists():
            os.replace(self.path, self.path.with_suffix(".jsonl.bak"))

    def record(self, record_kind: str, **fields: Any) -> None:
        """Durably append one record (writing the ``open`` header first).

        The record kind lands in the ``t`` field; ``fields`` may freely use
        any other name (including ``kind``, which failure records use for
        the error class).
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lines = []
        if not self.path.exists():
            lines.append(
                {
                    "t": "open",
                    "schema": JOURNAL_SCHEMA,
                    "grid": self.grid,
                    "version": __version__,
                    "kernel": KERNEL_BEHAVIOR_VERSION,
                }
            )
        lines.append({"t": record_kind, **fields})
        # A previous run may have died mid-append (ENOSPC, SIGKILL),
        # leaving a torn final line with no newline. Terminate it before
        # appending, or the new record would merge into the garbage and be
        # lost with it — replay() skips exactly one bad line either way,
        # but it must be the *torn* one, not ours.
        terminate_torn_tail = self._tail_is_unterminated()
        # The write/fsync pair goes through the havoc fs seam: an injected
        # (or real) ENOSPC mid-append leaves at most a torn final line,
        # which replay() skips — the crash-safety contract under test.
        with open(self.path, "a") as handle:
            if terminate_torn_tail:
                havocfs.write(handle, "\n", self.path)
            for line in lines:
                havocfs.write(
                    handle,
                    json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n",
                    self.path,
                )
            handle.flush()
            havocfs.fsync(handle.fileno(), str(self.path))
        self.records_written += len(lines)

    def _tail_is_unterminated(self) -> bool:
        """True when the file ends mid-line (a torn append to repair)."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) != b"\n"
        except (OSError, ValueError):  # absent or empty: nothing torn
            return False

    # -------------------------------------------------------------- reading
    def replay(self) -> JournalState:
        """Fold the record stream into a :class:`JournalState`.

        Tolerant by construction: a missing file is an empty state; a torn
        or garbled line (crash mid-append, disk corruption) is skipped and
        flagged, never fatal — the worst case is re-running a cell whose
        ``done`` record was lost, which is correct, just slower.
        """
        state = JournalState(grid=self.grid)
        try:
            text = self.path.read_text()
        except OSError:
            return state
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                state.truncated = True
                continue
            if not isinstance(record, dict):
                state.truncated = True
                continue
            state.records += 1
            kind = record.get("t")
            cell = record.get("cell")
            if kind == "open":
                if (
                    self.grid is not None
                    and record.get("grid") not in (None, self.grid)
                ):
                    raise ValueError(
                        f"journal {self.path} belongs to grid "
                        f"{record.get('grid')!r}, not {self.grid!r}"
                    )
                state.grid = record.get("grid", state.grid)
            elif kind == "dispatch":
                state.in_flight.add(cell)
            elif kind == "done":
                state.completed[cell] = record
                state.in_flight.discard(cell)
            elif kind == "quarantine":
                state.quarantined[cell] = record
                state.in_flight.discard(cell)
            elif kind == "failed":
                state.failed[cell] = record
                state.in_flight.discard(cell)
            elif kind == "interrupt":
                state.interrupted = True
            elif kind == "close":
                state.closed = True
            # "attempt" and unknown kinds are informational only.
        return state
