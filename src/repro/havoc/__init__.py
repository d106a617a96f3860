"""``repro.havoc`` — deterministic fault injection for the runner's storage.

:mod:`repro.faults` holds the *simulated protocol* to the paper's
standard — reliable remote control over unreliable links — by injecting
seeded radio faults. This package holds the *storage that keeps those
results* to the same standard: the result cache and the run journal write
through :mod:`repro.havoc.fs`, so tests can run them under injected
``ENOSPC`` windows, ``EIO``, torn writes and slow fsyncs and check that
they fail closed — a lost cache entry or a truncated journal, never a
wrong result.

Activation is process-wide and explicit::

    with havoc.active(plan) as injector:   # yields the fs injector
        ...

With no plan active every primitive is a pass-through; zero-fault runs
are bit-identical to runs without the package (regression-tested).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.havoc import fs as _fs
from repro.havoc.fs import HavocFS
from repro.havoc.plan import HavocEvent, HavocPlan


def deactivate() -> None:
    """Return the storage seam to pass-through."""
    _fs.install(None)


@contextmanager
def active(plan: HavocPlan) -> Iterator[HavocFS]:
    """Activate ``plan`` for a block; yields the fs injector for its log."""
    injector = HavocFS(plan)
    _fs.install(injector)
    try:
        yield injector
    finally:
        deactivate()


__all__ = [
    "HavocEvent",
    "HavocFS",
    "HavocPlan",
    "active",
    "deactivate",
]
