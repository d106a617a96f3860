"""The benchmark must not change what it measures.

For the first cell of every workload, the unsliced run (no benchmark code
around ``Simulator.run``), the sliced calibrated run and the traced run must
produce the same simulated-output digest and the same work counters.

    python3 -m pytest perfbench/test_perfbench.py -q     # about 3 minutes
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Callable, List

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from calibrate import Calibrator  # noqa: E402
from clock import SlicedClock  # noqa: E402
from layers import LayerTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.experiments.harness import Network  # noqa: E402

SEED = 3


class _Recorder:
    """The part of SlicedClock a cell uses, with no slicing and no timing."""

    def __init__(self) -> None:
        self.networks: List[Any] = []

    def timed_config(self, build: Callable[[], Any]) -> Any:
        return build()

    def __enter__(self) -> "_Recorder":
        self._init = Network.__init__
        recorder = self

        def init(net: Any, *args: Any, **kwargs: Any) -> None:
            recorder._init(net, *args, **kwargs)
            recorder.networks.append(net)

        Network.__init__ = init  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: object) -> None:
        Network.__init__ = self._init  # type: ignore[method-assign]


@pytest.fixture(scope="module")
def calibrator() -> Calibrator:
    return Calibrator()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_slicing_and_tracing_keep_outputs_bit_identical(name: str, calibrator: Calibrator) -> None:
    cell = WORKLOADS[name].cells(SEED)[0]
    with _Recorder() as recorder:
        plain = cell.run(recorder)  # type: ignore[arg-type]
    with SlicedClock(calibrator) as clock:
        sliced = cell.run(clock)
    tracer = LayerTracer()
    hooks = dict(on_run=tracer.on_run, on_setup=tracer.on_setup)
    with tracer, SlicedClock(calibrator, **hooks) as traced_clock:
        traced = cell.run(traced_clock)

    assert not plain.problems
    assert len(clock.slices) > 10, "the run was not sliced"
    assert sliced.digest == plain.digest
    assert traced.digest == plain.digest
    assert sliced.counters == plain.counters == traced.counters
    assert tracer.phases["run"].top <= traced_clock.run_wall_s()
    assert sum(tracer.phases["run"].count) > 0


def test_wrappers_are_removed_on_exit(calibrator: Calibrator) -> None:
    from repro.net.ctp import CtpRouting
    from repro.sim.simulator import Simulator

    before = (Simulator.run, Simulator.schedule, Network.__init__, CtpRouting._evaluate_route)
    tracer = LayerTracer()
    with tracer, SlicedClock(calibrator, on_run=tracer.on_run, on_setup=tracer.on_setup):
        assert Simulator.schedule is not before[1]
    assert (Simulator.run, Simulator.schedule, Network.__init__,
            CtpRouting._evaluate_route) == before
