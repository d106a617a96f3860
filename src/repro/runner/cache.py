"""On-disk, content-addressed result cache.

One JSON file per cell, named by the spec fingerprint. Because the
fingerprint already folds in the package version *and* the kernel
behaviour version (:data:`repro.sim.KERNEL_BEHAVIOR_VERSION`), bumping
either simply makes old entries unreachable.

The cache is **self-healing**: a truncated, bit-rotted, or
schema-mismatched entry is quarantined (renamed to ``*.corrupt``), logged
through the progress sink, and reported as a miss — so a damaged cache
file costs one re-simulation, never a crashed grid and never a wrong
result. :meth:`ResultCache.load` additionally verifies the stored
version/kernel/fingerprint fields, so a tampered-but-parseable file
degrades the same way.

The cache is also **concurrent-writer safe** — a requirement once several
runs (separate processes) share one cache directory:

- writes are unique-temp-file + atomic ``os.replace``, so readers never
  see a torn entry and two writers finishing the same cell simply race
  to install bit-identical content;
- the *quarantine* path takes an advisory ``flock`` on ``.lock`` in the
  cache root and **re-verifies** the entry under the lock before renaming
  it aside: if a concurrent writer replaced the damaged bytes with a fresh
  valid entry in the meantime, the quarantine is abandoned and the read
  degrades to a plain miss. A valid entry can therefore never be destroyed
  by a reader that observed its predecessor mid-heal.
- writers take the same lock around the final rename, so the
  re-verify/rename pair above cannot interleave with an install.

On platforms without ``fcntl`` the lock degrades to the pure
rename-discipline protocol (atomic installs + re-verification), which
closes the same race up to a much smaller window.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Union

from repro.havoc import fs as havocfs
from repro.runner.taskspec import SPEC_SCHEMA, TaskSpec
from repro.sim.simulator import KERNEL_BEHAVIOR_VERSION
from repro.version import __version__

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None  # type: ignore[assignment]


class ResultCache:
    """Load/store successful cell results keyed by spec fingerprint.

    ``locking=True`` (the default) serialises installs and quarantines
    through an advisory ``flock`` when the platform supports it; pass
    ``locking=False`` to rely on the lock-free rename discipline alone
    (e.g. on network filesystems with broken ``flock`` semantics).
    """

    def __init__(
        self,
        root: Union[str, Path],
        progress: Optional[Callable[..., None]] = None,
        locking: bool = True,
    ) -> None:
        self.root = Path(root)
        self.progress = progress
        self.locking = locking and fcntl is not None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt entries renamed aside (each one re-executed its cell).
        self.quarantined = 0

    def _emit(self, message: str, **data: Any) -> None:
        if self.progress is not None:
            self.progress("cache", message, **data)

    def path_for(self, spec: TaskSpec) -> Path:
        """Cache file for one spec."""
        return self.root / f"{spec.fingerprint}.json"

    @contextmanager
    def _lock(self) -> Iterator[None]:
        """Advisory exclusive lock on the cache root (no-op when disabled).

        Held only around metadata-rate operations (the final install
        rename, the quarantine re-verify/rename) — never around a
        simulation or a bulk write, so contention stays negligible.
        """
        if not self.locking:
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / ".lock", "a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _quarantine(self, path: Path, reason: str, observed: bytes) -> None:
        """Rename a damaged entry to ``*.corrupt`` so it can't re-offend.

        ``observed`` is the damaged content that justified the verdict.
        Under the advisory lock the entry is re-read and compared: if a
        concurrent writer has already replaced (or removed) it, the
        quarantine is abandoned — the caller proceeds as on a plain miss
        and the fresh entry survives untouched.
        """
        quarantine_path = path.with_name(path.name + ".corrupt")
        with self._lock():
            try:
                current = path.read_bytes()
            except OSError:  # gone: concurrently quarantined or removed
                return
            if current != observed:
                return  # a concurrent writer healed the slot; keep it
            try:
                os.replace(path, quarantine_path)
            except OSError:
                return
        self.quarantined += 1
        self._emit(
            f"quarantined corrupt cache entry {path.name}: {reason}",
            entry=path.name,
            reason=reason,
        )

    def load(self, spec: TaskSpec) -> Optional[Dict[str, Any]]:
        """The cached result payload, or None on any kind of miss.

        Never raises for a damaged file: corruption quarantines the entry
        and degrades to a miss, so the cell transparently re-executes.
        """
        path = self.path_for(spec)
        try:
            raw = havocfs.read_bytes(path)
        except OSError:  # absent (the common miss) or unreadable (EIO)
            self.misses += 1
            return None
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:  # bit-rot produced invalid UTF-8
            self.misses += 1
            self._quarantine(path, "invalid UTF-8 (bit-rotted)", raw)
            return None
        try:
            stored = json.loads(text)
        except ValueError:
            self.misses += 1
            self._quarantine(path, "invalid JSON (truncated or bit-rotted)", raw)
            return None
        if not isinstance(stored, dict) or not isinstance(
            stored.get("result"), dict
        ):
            self.misses += 1
            self._quarantine(path, "malformed entry (no result payload)", raw)
            return None
        if stored.get("schema") != SPEC_SCHEMA:
            self.misses += 1
            self._quarantine(
                path, f"schema {stored.get('schema')!r} != {SPEC_SCHEMA}", raw
            )
            return None
        if (
            stored.get("version") != __version__
            or stored.get("kernel") != KERNEL_BEHAVIOR_VERSION
            or stored.get("fingerprint") != spec.fingerprint
        ):
            # The fingerprint in the *name* folds in version and kernel, so
            # a correctly-named file disagreeing about them is inconsistent
            # with itself — quarantine rather than silently shadow the slot.
            self.misses += 1
            self._quarantine(path, "version/kernel/fingerprint mismatch", raw)
            return None
        self.hits += 1
        return stored["result"]

    def store(self, spec: TaskSpec, result: Dict[str, Any]) -> Path:
        """Persist one successful result; returns the file written."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec)
        payload = {
            "schema": SPEC_SCHEMA,
            "version": __version__,
            "kernel": KERNEL_BEHAVIOR_VERSION,
            "fingerprint": spec.fingerprint,
            "kind": spec.kind,
            "label": spec.label,
            "params": spec.params,
            "result": result,
        }
        # Unique temp name + atomic rename: concurrent runners (or parallel
        # workers finishing the same cell) never clobber each other's
        # half-written file, and readers only ever see complete entries.
        # The install rename happens under the advisory lock so it cannot
        # interleave with a quarantine's re-verify/rename pair.
        text = json.dumps(payload, indent=2, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{spec.fingerprint}.", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "w") as handle:
                havocfs.write(handle, text, path)
            # Fail closed on a lying disk: verify the temp file before the
            # install rename, so ENOSPC-shortened bytes raise here instead
            # of becoming a (self-healing, but avoidable) corrupt entry.
            if havocfs.read_bytes(tmp_name) != text.encode("utf-8"):
                raise OSError(
                    errno.EIO,
                    f"torn write detected installing cache entry {path.name}",
                    str(path),
                )
            with self._lock():
                havocfs.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path
