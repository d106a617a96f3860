"""The filesystem seam: proxy primitives the runner's storage routes through.

:mod:`repro.runner.journal` and :mod:`repro.runner.cache` perform their
durable writes through the four module-level primitives below
(:func:`write`, :func:`fsync`, :func:`replace`, :func:`read_bytes`)
instead of calling the OS directly. With no plan active each is a
zero-cost pass-through; under an active
:class:`~repro.havoc.plan.HavocPlan` they consult a :class:`HavocFS`
which injects ``ENOSPC``, ``EIO``, torn (prefix-then-fail) writes, and
slow fsyncs from the plan's deterministic op-count windows.

Injected errors are *real* ``OSError`` instances carrying real errnos —
production code cannot (and must not) tell them from a genuinely full
disk, which is the point: the hardening they force is the hardening a
full disk needs.

Every decision is appended to :attr:`HavocFS.log` as
``(op, index, path, kind)`` tuples, so a test can assert that the same
plan over the same operation sequence reproduces the same injection
sequence bit for bit.
"""

from __future__ import annotations

import errno
import os
import time
from typing import IO, List, Optional, Tuple, Union

from repro.havoc.plan import HavocEvent, HavocPlan

PathLike = Union[str, "os.PathLike[str]"]


def _enospc(path: str) -> OSError:
    return OSError(errno.ENOSPC, "No space left on device [havoc]", path)


def _eio(path: str) -> OSError:
    return OSError(errno.EIO, "Input/output error [havoc]", path)


class HavocFS:
    """Deterministic fault decisions for filesystem operations.

    Stateful only in its per-event match counters: the Nth operation
    matching an event's (op, scope) filters always gets the same verdict,
    regardless of wall clock or interleaving with non-matching ops.
    """

    def __init__(self, plan: HavocPlan) -> None:
        self.plan = plan
        self._events: Tuple[HavocEvent, ...] = plan.events
        self._matched: List[int] = [0] * len(self._events)
        #: Injection record: (op, per-event match index, path, kind).
        self.log: List[Tuple[str, int, str, str]] = []
        #: Total faults injected (cheap liveness check for tests).
        self.injected = 0

    def decide(self, op: str, path: str) -> Optional[HavocEvent]:
        """The event firing for this operation, if any.

        Advances every matching event's counter (so windows are counted
        per event, not globally) and returns the first event whose window
        covers this operation.
        """
        fired: Optional[HavocEvent] = None
        for i, event in enumerate(self._events):
            if not event.matches(op, path):
                continue
            index = self._matched[i]
            self._matched[i] += 1
            if fired is None and event.start <= index < event.start + event.count:
                fired = event
                self.injected += 1
                self.log.append((op, index, path, event.kind))
        return fired

    # ------------------------------------------------------------ primitives
    def write(
        self, handle: IO[str], data: str, path: Optional[PathLike] = None
    ) -> None:
        # fdopen'd handles carry an *int* name; callers writing through a
        # mkstemp fd pass the real target path so scopes can match it.
        path = path if path is not None else getattr(handle, "name", "")
        event = self.decide("write", str(path))
        if event is None:
            handle.write(data)
            return
        if event.kind == "torn":
            # A real torn write: half the payload lands, then the disk
            # "fills". The caller sees ENOSPC; the file is genuinely torn.
            handle.write(data[: max(1, len(data) // 2)])
            handle.flush()
            raise _enospc(str(path))
        if event.kind == "enospc":
            raise _enospc(str(path))
        if event.kind == "eio":
            raise _eio(str(path))
        handle.write(data)  # slow_fsync et al. don't apply to writes

    def fsync(self, fd: int, path: str = "") -> None:
        event = self.decide("fsync", path)
        if event is not None:
            if event.kind == "slow_fsync":
                time.sleep(event.delay_s)
            elif event.kind in ("enospc", "torn"):
                raise _enospc(path)
            elif event.kind == "eio":
                raise _eio(path)
        os.fsync(fd)

    def replace(self, src: PathLike, dst: PathLike) -> None:
        event = self.decide("replace", str(dst))
        if event is not None and event.kind in ("enospc", "torn"):
            raise _enospc(str(dst))
        if event is not None and event.kind == "eio":
            raise _eio(str(dst))
        os.replace(src, dst)

    def read_bytes(self, path: PathLike) -> bytes:
        event = self.decide("read", str(path))
        if event is not None and event.kind == "eio":
            raise _eio(str(path))
        with open(path, "rb") as handle:
            return handle.read()


#: The active injector (None = pass-through). Managed by repro.havoc.
_ACTIVE: Optional[HavocFS] = None


def install(fs: Optional[HavocFS]) -> None:
    global _ACTIVE
    _ACTIVE = fs


def current() -> Optional[HavocFS]:
    return _ACTIVE


# ------------------------------------------------------------------ proxies
def write(handle: IO[str], data: str, path: Optional[PathLike] = None) -> None:
    """Write ``data`` to an open text handle (the injectable seam).

    Pass ``path`` when the handle came from a bare fd (``os.fdopen`` names
    it by number) so plan scopes can still match the target.
    """
    if _ACTIVE is None:
        handle.write(data)
    else:
        _ACTIVE.write(handle, data, path)


def fsync(fd: int, path: str = "") -> None:
    """fsync a file descriptor (the injectable seam)."""
    if _ACTIVE is None:
        os.fsync(fd)
    else:
        _ACTIVE.fsync(fd, path)


def replace(src: PathLike, dst: PathLike) -> None:
    """Atomic rename (the injectable seam)."""
    if _ACTIVE is None:
        os.replace(src, dst)
    else:
        _ACTIVE.replace(src, dst)


def read_bytes(path: PathLike) -> bytes:
    """Read a file's bytes (the injectable seam)."""
    if _ACTIVE is None:
        with open(path, "rb") as handle:
            return handle.read()
    return _ACTIVE.read_bytes(path)
