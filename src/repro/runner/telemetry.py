"""Per-cell and per-grid execution telemetry.

Every :class:`~repro.runner.engine.ParallelRunner.run` produces a
:class:`RunnerReport`: one :class:`CellTelemetry` per cell (executed /
cached / resumed-from-journal / failed / interrupted, attempts, wall
seconds, scheduled sim seconds) plus aggregate counters — journal hits,
the quarantined-cell list — and a summary table rendered in the repo's
usual ASCII-table style.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class CellTelemetry:
    """How one cell fared."""

    index: int
    label: str
    kind: str
    fingerprint: str
    #: "executed" | "cached" | "journal" | "failed" | "interrupted"
    status: str
    attempts: int = 1
    #: Wall-clock seconds spent simulating (0 for cached cells).
    wall_s: float = 0.0
    #: Scheduled simulated seconds (the cell's size, wall-independent).
    sim_s: float = 0.0
    error: Optional[str] = None
    #: Kernel events the cell dispatched (None for cached/failed cells or
    #: executors that don't report one).
    events: Optional[int] = None
    #: True when the cell was quarantined (its process crashed or timed out
    #: on both attempts); a resumed grid skips it instead of re-running it.
    quarantined: bool = False


@dataclass
class RunnerReport:
    """Aggregate outcome of one grid run."""

    jobs: int
    #: Where the grid's cells ran ("in-process" or "subprocess") — see
    #: :mod:`repro.runner.executors`.
    executor: str = "in-process"
    #: The ``jobs`` value as requested (0 = auto-detect); ``jobs`` above is
    #: always the resolved worker count, so auto-detection is never silent.
    jobs_requested: Optional[int] = None
    cells: List[CellTelemetry] = field(default_factory=list)
    #: Wall-clock seconds for the whole grid (includes scheduling overhead).
    wall_s: float = 0.0
    #: Path of the run journal, when one was configured.
    journal: Optional[str] = None

    def _count(self, status: str) -> int:
        return sum(1 for c in self.cells if c.status == status)

    @property
    def executed(self) -> int:
        """Cells that were actually simulated this run."""
        return self._count("executed")

    @property
    def cached(self) -> int:
        """Cells answered from the result cache."""
        return self._count("cached")

    @property
    def resumed(self) -> int:
        """Cells answered from the run journal (journal hits on resume)."""
        return self._count("journal")

    @property
    def failed(self) -> int:
        """Cells that failed on both attempts."""
        return self._count("failed")

    @property
    def interrupted(self) -> int:
        """Cells left unfinished by a graceful shutdown — resumable."""
        return self._count("interrupted")

    @property
    def retried(self) -> int:
        """Cells that needed more than one attempt."""
        return sum(1 for c in self.cells if c.attempts > 1)

    @property
    def sim_seconds(self) -> float:
        """Total scheduled simulated seconds across executed cells."""
        return sum(c.sim_s for c in self.cells if c.status == "executed")

    @property
    def throughput(self) -> Optional[float]:
        """Simulated seconds per wall second (the speed-up to brag about)."""
        if self.wall_s <= 0:
            return None
        return self.sim_seconds / self.wall_s

    @property
    def events_total(self) -> int:
        """Total kernel events dispatched across executed cells."""
        return sum(c.events for c in self.cells if c.events is not None)

    @property
    def events_per_s(self) -> Optional[float]:
        """Kernel events per wall second of simulation — the perf trajectory
        tracked by BENCH_kernel.json (None when no cell reported events)."""
        reporting = [c for c in self.cells if c.events is not None and c.wall_s > 0]
        if not reporting:
            return None
        wall = sum(c.wall_s for c in reporting)
        return sum(c.events for c in reporting) / wall if wall > 0 else None

    def failures(self) -> List[CellTelemetry]:
        """The failed cells, each carrying its exception repr and attempts."""
        return [c for c in self.cells if c.status == "failed"]

    def quarantined(self) -> List[CellTelemetry]:
        """Poison cells quarantined this run (subset of :meth:`failures`)."""
        return [c for c in self.cells if c.quarantined]

    def counters(self) -> Dict[str, Any]:
        """The summary numbers as a plain dict (for JSON/bench output)."""
        return {
            "jobs": self.jobs,
            "jobs_requested": self.jobs_requested,
            "executor": self.executor,
            "cells": len(self.cells),
            "executed": self.executed,
            "cached": self.cached,
            "resumed": self.resumed,
            "failed": self.failed,
            "interrupted": self.interrupted,
            "retried": self.retried,
            "wall_s": self.wall_s,
            "sim_seconds": self.sim_seconds,
            "throughput": self.throughput,
            "events_total": self.events_total,
            "events_per_s": self.events_per_s,
            "journal": self.journal,
            "quarantined": [c.label for c in self.quarantined()],
            "failures": [
                {"label": c.label, "attempts": c.attempts, "error": c.error}
                for c in self.failures()
            ],
        }

    def summary_line(self) -> str:
        """One-line grid outcome for progress streams (plus failure details)."""
        rate = self.throughput
        events_rate = self.events_per_s
        line = f"{len(self.cells)} cells: {self.executed} executed, {self.cached} cached"
        if self.resumed:
            line += f", {self.resumed} resumed"
        if self.interrupted:
            line += f", {self.interrupted} interrupted"
        line += f", {self.failed} failed ({self.retried} retried) in {self.wall_s:.1f}s wall"
        if rate and self.sim_seconds > 0:
            line += f", {rate:.0f} sim-s/s"
        if events_rate:
            line += f", {events_rate / 1000:.0f}k ev/s"
        for cell in self.failures():
            tag = " [quarantined]" if cell.quarantined else ""
            line += (
                f"\n  FAILED {cell.label}: {cell.attempts} attempt(s): "
                f"{cell.error}{tag}"
            )
        if self.interrupted:
            line += (
                f"\n  INTERRUPTED: {self.interrupted} cell(s) unfinished"
                + (" — resumable from the run journal" if self.journal else "")
            )
        return line

    def summary_table(self) -> str:
        """Per-cell ASCII table plus the aggregate line."""
        from repro.experiments.report import ascii_table

        rows = [
            [
                c.label or c.fingerprint[:10],
                c.kind,
                c.status + ("*" if c.quarantined else ""),
                c.attempts,
                f"{c.wall_s:.2f}",
                f"{c.sim_s:.0f}",
                c.error or "",
            ]
            for c in self.cells
        ]
        table = ascii_table(
            ["cell", "kind", "status", "attempts", "wall_s", "sim_s", "error"],
            rows,
            title=f"Runner telemetry (executor={self.executor}, jobs={self.jobs})",
        )
        return table + "\n" + self.summary_line()
