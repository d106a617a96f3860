"""Spec execution: the code that actually runs inside worker processes.

:func:`run_task` is the spawn-safe, top-level worker function handed to the
process pool — it takes a plain dict (a serialised :class:`TaskSpec` plus
the attempt number), runs it through the record of the spec's ``kind`` in
:mod:`repro.experiments.registry`, and returns a plain dict. The serial
(``jobs=1``) path calls the very same function in-process, so parallel and
serial execution are the same code and produce identical results.

Fault injection: a spec's ``fault`` mapping can request a crash
(``os._exit`` in a worker — indistinguishable from a segfault), a raised
exception, or a hang on the first N attempts. This is the test hook for the
engine's retry/timeout machinery; faults are excluded from the cache
fingerprint so they never pollute real results.

Heartbeats: when the payload carries a ``heartbeat`` path, a daemon thread
atomically rewrites that sentinel file every ``heartbeat_s`` seconds with
the worker's pid, a beat counter, and the live simulator's progress
(events dispatched, sim time) sampled via
:func:`repro.sim.simulator.active_simulator`. The engine's watchdog reads
it to tell a *dead/frozen worker* (beats stop) from a *hung simulation*
(beats continue, progress flat) — and to kill either well before the
coarse per-cell timeout.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Mapping, Optional

from repro.runner.taskspec import TaskSpec


class InjectedFault(RuntimeError):
    """Raised by the fault-injection hook (and by in-process "crashes")."""


class _HeartbeatWriter(threading.Thread):
    """Daemon thread: rewrite the heartbeat sentinel every interval.

    Writes are tmp-file + ``os.replace`` so the engine never reads a torn
    sentinel, and best-effort — a full disk must not fail the simulation.
    The first beat is written immediately, so the engine sees the file as
    soon as the (spawned, freshly importing) worker reaches the task.
    """

    def __init__(self, path: str, interval_s: float) -> None:
        super().__init__(name="repro-heartbeat", daemon=True)
        self.path = path
        self.interval_s = max(interval_s, 0.05)
        self.beats = 0
        self._stopped = threading.Event()

    def _beat(self) -> None:
        from repro.sim.simulator import active_simulator

        sim = active_simulator()
        self.beats += 1
        payload = {
            "pid": os.getpid(),
            "beats": self.beats,
            "events": sim.events_executed if sim is not None else None,
            "sim_t": round(sim.now_seconds, 3) if sim is not None else None,
        }
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, self.path)
        except OSError:
            pass

    def run(self) -> None:  # pragma: no cover - timing-dependent loop body
        while True:
            self._beat()
            if self._stopped.wait(self.interval_s):
                return

    def stop(self) -> None:
        self._stopped.set()


def _apply_fault(
    fault: Optional[Mapping[str, Any]], attempt: int, in_process: bool
) -> None:
    if not fault:
        return
    if attempt < int(fault.get("crash_attempts", 0)):
        if in_process:
            # A hard exit would kill the caller's interpreter; an exception
            # exercises the same serial retry path.
            raise InjectedFault(f"injected crash (attempt {attempt})")
        os._exit(17)
    if attempt < int(fault.get("error_attempts", 0)):
        raise InjectedFault(f"injected error (attempt {attempt})")
    if attempt < int(fault.get("hang_attempts", 0)):
        time.sleep(float(fault.get("hang_s", 3600.0)))


def sim_seconds_estimate(spec: TaskSpec) -> float:
    """Scheduled simulated seconds for one cell (telemetry's sim/wall ratio)."""
    from repro.experiments.registry import EXPERIMENTS

    return EXPERIMENTS[spec.kind].sim_seconds(spec.params)


def execute_spec(spec: TaskSpec) -> Dict[str, Any]:
    """Run one cell and return its JSON-serialisable result payload."""
    # Imported per call, not at module level: the drivers import repro.runner.
    from repro.experiments.registry import EXPERIMENTS

    try:
        experiment = EXPERIMENTS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown task kind {spec.kind!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    return experiment.run(spec.params)


def run_task(payload: Mapping[str, Any], in_process: bool = False) -> Dict[str, Any]:
    """Top-level worker entry point (must stay importable for spawn).

    ``payload`` is ``{"spec": TaskSpec.to_dict(), "attempt": int}``, plus
    optional ``heartbeat``/``heartbeat_s`` keys naming a sentinel file for
    the engine's watchdog (parallel mode only — in-process callers are
    blocked on the cell anyway). The return value is ``{"result",
    "wall_s", "sim_s", "events"}`` (``events`` is the kernel's
    dispatched-event count when the executor reports one, else None — it
    feeds the events/sec column in runner telemetry).
    """
    spec = TaskSpec.from_dict(payload["spec"])
    heartbeat = None
    heartbeat_path = payload.get("heartbeat")
    if heartbeat_path and not in_process:
        heartbeat = _HeartbeatWriter(
            heartbeat_path, float(payload.get("heartbeat_s", 1.0))
        )
        heartbeat.start()
    try:
        _apply_fault(spec.fault, int(payload.get("attempt", 0)), in_process)
        started = time.perf_counter()
        result = execute_spec(spec)
        return {
            "result": result,
            "wall_s": time.perf_counter() - started,
            "sim_s": sim_seconds_estimate(spec),
            "events": result.get("events_executed"),
        }
    finally:
        if heartbeat is not None:
            heartbeat.stop()
