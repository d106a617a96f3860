"""Spec execution: the code that runs one cell, in whichever process.

:func:`run_task` takes a plain dict (a serialised :class:`TaskSpec` plus
the attempt number), runs it through the record of the spec's ``kind`` in
:mod:`repro.experiments.registry`, and returns a plain dict. A spawned
cell process (``jobs>=2``) and the in-process path (``jobs=1``) call the
very same function, so both produce identical results.

Fault injection: a spec's ``fault`` mapping can request a crash
(``os._exit`` in a cell process — indistinguishable from a segfault), a
raised exception, or a hang on the first N attempts. This is the test hook
for the runner's retry and timeout handling; faults are excluded from the
cache fingerprint so they never pollute real results.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Mapping, Optional

from repro.runner.taskspec import TaskSpec


class InjectedFault(RuntimeError):
    """Raised by the fault-injection hook (and by in-process "crashes")."""


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
    """Run one cell attempt (top-level, so a spawned process can import it).

    ``payload`` is ``{"spec": TaskSpec.to_dict(), "attempt": int}``. The
    return value is ``{"result", "wall_s", "sim_s", "events"}`` (``events``
    is the kernel's dispatched-event count when the experiment reports one,
    else None — it feeds the events/sec column in runner telemetry).
    """
    spec = TaskSpec.from_dict(payload["spec"])
    _apply_fault(spec.fault, int(payload.get("attempt", 0)), in_process)
    started = time.perf_counter()
    result = execute_spec(spec)
    return {
        "result": result,
        "wall_s": time.perf_counter() - started,
        "sim_s": sim_seconds_estimate(spec),
        "events": result.get("events_executed"),
    }
