"""Declarative havoc plans — fault schedules for the runner's storage.

A :class:`HavocPlan` is to the *machinery* what a
:class:`repro.faults.FaultPlan` is to the radios: an ordered, validated
set of fault events, injected deterministically. Where a fault plan keys
events on simulated time, a havoc plan keys them on **operation counts** —
"the 3rd fsync under the journal directory", "the 2nd cache write" —
because wall-clock time is not reproducible but the sequence of storage
operations a deterministic grid performs is.

Event kinds (all handled by :mod:`repro.havoc.fs`):

``enospc``     — the write/replace raises ``OSError(ENOSPC)``;
``eio``        — the read/write/fsync/replace raises ``OSError(EIO)``;
``torn``       — a *prefix* of the data is written, then
                 ``OSError(ENOSPC)`` — the on-disk file is genuinely torn,
                 exactly like a disk filling mid-write;
``slow_fsync`` — the fsync sleeps ``delay_s`` before completing.

Events match operations by ``op`` (the operation class: ``write``,
``fsync``, ``replace``, ``read`` — empty string matches any) and
``scope`` (a substring of the path — empty matches any). Each event keeps
its own counter of matching operations and fires for the window
``start <= counter < start + count``. The schedule is a pure function of
the plan, so the same plan always reproduces the same injection sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Fault kinds handled by the filesystem seam.
FS_KINDS = ("enospc", "eio", "torn", "slow_fsync")


@dataclass(frozen=True)
class HavocEvent:
    """One windowed storage fault. See the module docstring."""

    kind: str
    #: Operation-class filter: write / fsync / replace / read.
    op: str = ""
    #: Substring filter on the target path ("" matches any).
    scope: str = ""
    #: 0-based index of the first matching operation affected.
    start: int = 0
    #: How many consecutive matching operations are affected.
    count: int = 1
    #: Sleep duration for slow_fsync.
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FS_KINDS:
            raise ValueError(f"unknown havoc kind {self.kind!r}")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.kind == "slow_fsync" and self.delay_s <= 0:
            raise ValueError(f"{self.kind} needs a positive delay_s")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    def matches(self, op: str, target: str) -> bool:
        """Does this event apply to one (operation class, target) pair?"""
        if self.op and self.op != op:
            return False
        return self.scope in target


@dataclass(frozen=True)
class HavocPlan:
    """An ordered, validated set of havoc events, optionally named."""

    events: Tuple[HavocEvent, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
