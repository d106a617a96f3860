"""Sliced, calibrated host timing of a simulation, installed from outside.

:class:`SlicedClock` replaces ``Simulator.run`` and ``Network.__init__`` on
their classes for the duration of a ``with`` block:

- every ``run(until=T)`` call is cut into slices ``run(until=t1)``,
  ``run(until=t2)``, ... ``run(until=T)`` of about :data:`TARGET_SLICE_S`
  host seconds each, with one calibration measurement between consecutive
  slices. Only ``until`` is used: a slice bounded by ``max_events`` would
  leave the clock at ``T`` with earlier events still queued. Between two
  slices no callback runs, so the events, their order and every RNG draw
  are exactly those of the unsliced call;
- every network construction is timed, bracketed by calibrations, and the
  network is kept so the workload can read its counters afterwards.

Reference seconds of a slice are ``wall * C_REF / c``, where ``c`` is the
mean of the calibrations just before and just after it.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from calibrate import C_REF, Calibrator

#: Host seconds one slice aims for: long enough that calibration costs a few
#: per cent, short enough to follow the host's speed changes.
TARGET_SLICE_S = 0.02
_FIRST_STEP = 100_000  # simulated ticks (microseconds)
_MIN_STEP = 1_000


def peak_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Span:
    """One timed stretch of host work with the calibrations around it."""

    wall: float
    cal_before: float
    cal_after: float
    #: Growth of the process's peak resident memory (builds only), in MiB.
    rss_mb: float = 0.0

    @property
    def ref(self) -> float:
        """The stretch in reference seconds."""
        return self.wall * C_REF / (0.5 * (self.cal_before + self.cal_after))


class SlicedClock:
    """Install with ``with SlicedClock(cal):``; read the spans afterwards.

    ``on_run`` / ``on_setup`` are entered around each slice and each build
    (the tracer uses them to switch its accumulators); ``None`` skips them.
    """

    def __init__(
        self,
        calibrator: Calibrator,
        on_run: Optional[Callable[[bool], None]] = None,
        on_setup: Optional[Callable[[bool], None]] = None,
    ) -> None:
        from repro.experiments.harness import Network
        from repro.sim.simulator import Simulator

        self._sim_cls = Simulator
        self._net_cls = Network
        self._cal = calibrator
        self._on_run = on_run
        self._on_setup = on_setup
        self._step = _FIRST_STEP
        self._pending_config_s = 0.0
        self.slices: List[Span] = []
        self.builds: List[Span] = []
        #: Every network built while installed, in order.
        self.networks: List[Any] = []

    # -------------------------------------------------------------- install
    def __enter__(self) -> "SlicedClock":
        self._orig_run = self._sim_cls.run
        self._orig_init = self._net_cls.__init__
        clock = self

        def run(sim: Any, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
            return clock._sliced_run(sim, until, max_events)

        def init(net: Any, *args: Any, **kwargs: Any) -> None:
            clock._timed_init(net, args, kwargs)

        self._sim_cls.run = run  # type: ignore[method-assign]
        self._net_cls.__init__ = init  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: object) -> None:
        self._sim_cls.run = self._orig_run  # type: ignore[method-assign]
        self._net_cls.__init__ = self._orig_init  # type: ignore[method-assign]

    # ---------------------------------------------------------------- run
    def _sliced_run(self, sim: Any, until: Optional[int], max_events: Optional[int]) -> int:
        orig = self._orig_run
        measure = self._cal.measure
        clock = time.perf_counter
        on_run = self._on_run
        if until is None or max_events is not None:
            # Not sliceable by time: one span. No workload calls this form.
            before = measure()
            if on_run:
                on_run(True)
            start = clock()
            try:
                executed = orig(sim, until=until, max_events=max_events)
            finally:
                wall = clock() - start
                if on_run:
                    on_run(False)
            self.slices.append(Span(wall, before, measure()))
            return executed
        executed = 0
        before = measure()
        while True:
            target = min(sim.now + self._step, until)
            if on_run:
                on_run(True)
            start = clock()
            try:
                executed += orig(sim, until=target)
            finally:
                wall = clock() - start
                if on_run:
                    on_run(False)
            after = measure()
            self.slices.append(Span(wall, before, after))
            before = after
            if wall > 0.0:
                scale = min(4.0, max(0.25, TARGET_SLICE_S / wall))
                self._step = max(_MIN_STEP, int(self._step * scale))
            if sim.now >= until or sim.now < target:
                # Done, or stop() was called inside the slice.
                return executed

    # -------------------------------------------------------------- setup
    def timed_config(self, build: Callable[[], Any]) -> Any:
        """Call ``build()`` (a config factory) and charge it to the next build."""
        if self._on_setup:
            self._on_setup(True)
        start = time.perf_counter()
        try:
            config = build()
        finally:
            self._pending_config_s += time.perf_counter() - start
            if self._on_setup:
                self._on_setup(False)
        return config

    def _timed_init(self, net: Any, args: tuple, kwargs: dict) -> None:
        measure = self._cal.measure
        before = measure()
        rss_before = peak_mb()
        if self._on_setup:
            self._on_setup(True)
        start = time.perf_counter()
        try:
            self._orig_init(net, *args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            if self._on_setup:
                self._on_setup(False)
        wall += self._pending_config_s
        self._pending_config_s = 0.0
        rss = peak_mb() - rss_before
        self.builds.append(Span(wall, before, measure(), rss_mb=rss))
        self.networks.append(net)

    # ------------------------------------------------------------- totals
    def run_ref_s(self) -> float:
        """Reference seconds spent inside ``Simulator.run``."""
        return sum(span.ref for span in self.slices)

    def run_wall_s(self) -> float:
        """Host seconds spent inside ``Simulator.run``."""
        return sum(span.wall for span in self.slices)
