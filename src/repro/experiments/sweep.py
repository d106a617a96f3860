"""Parameter sweeps and seed-averaged comparisons.

The paper evaluates one wake interval (512 ms), one density per field, and
averages "over at least 5 runs". This module provides the machinery for all
three axes:

- :func:`run_comparison_multi` — the paper's multi-run averaging: repeat a
  comparison cell over seeds and aggregate mean/min/max per metric.
- :func:`sweep_wake_interval` — how the LPL wake interval trades latency
  against duty cycle for a protocol.
- :func:`sweep_network_size` — how code length and delivery behave as the
  network grows (scalability, §IV-A's motivation).

All three drivers execute through :class:`repro.runner.ParallelRunner`:
pass ``jobs=N`` to fan cells out over worker processes and ``cache_dir``
to reuse unchanged cells across invocations. ``jobs=1`` without a cache is
the historical serial path and produces bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING, cast

from repro.experiments.comparison import ComparisonResult
from repro.experiments.harness import Network, NetworkConfig
from repro.mac.lpl import MacParams
from repro.metrics.stats import mean
from repro.protocols import TeleProtocolAdapter
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RunnerOutcome,
    TaskSpec,
    comparison_spec,
    network_size_spec,
    wake_interval_spec,
)
from repro.sim.units import MILLISECOND, SECOND
from repro.topology import random_uniform
from repro.workloads.control import ControlSchedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.telemetry import RunnerReport


@dataclass
class AggregateMetric:
    """Mean/min/max of one metric over seeds."""

    values: List[float] = field(default_factory=list)

    def add(self, value: Optional[float]) -> None:
        """Add one element/record."""
        if value is not None:
            self.values.append(float(value))

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean of the aggregated values, or None."""
        return mean(self.values)

    @property
    def min(self) -> Optional[float]:
        """Smallest aggregated value, or None."""
        return min(self.values) if self.values else None

    @property
    def max(self) -> Optional[float]:
        """Largest aggregated value, or None."""
        return max(self.values) if self.values else None

    def summary(self) -> str:
        """Compact human-readable mean/min/max summary."""
        if not self.values:
            return "n/a"
        return f"{self.mean:.3f} [{self.min:.3f}..{self.max:.3f}] (n={len(self.values)})"


@dataclass
class MultiRunResult:
    """Seed-aggregated comparison cell."""

    variant: str
    zigbee_channel: int
    seeds: List[int]
    pdr: AggregateMetric
    tx_per_control: AggregateMetric
    duty_cycle: AggregateMetric
    latency: AggregateMetric
    runs: List[ComparisonResult] = field(default_factory=list)
    #: Execution telemetry of the runner that produced :attr:`runs`
    #: (cells executed vs cached vs failed); None only on manual assembly.
    telemetry: Optional["RunnerReport"] = None


def _make_runner(
    jobs: int,
    cache_dir: Optional[str],
    runner: Optional[ParallelRunner],
    journal_dir: Optional[str] = None,
    resume: bool = False,
) -> ParallelRunner:
    if runner is not None:
        return runner
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return ParallelRunner(
        jobs=jobs,
        cache=cache,
        journal_dir=journal_dir,
        resume=resume,
    )


def run_comparison_multi(
    variant: str,
    zigbee_channel: int = 26,
    seeds: Sequence[int] = (1, 2, 3),
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    runner: Optional[ParallelRunner] = None,
    journal_dir: Optional[str] = None,
    resume: bool = False,
    **kwargs: object,
) -> MultiRunResult:
    """Repeat one comparison cell over ``seeds`` and aggregate.

    This is the paper's "results are averaged over at least 5 runs"
    methodology; pass ``seeds=range(1, 6)`` to match it exactly. ``jobs``,
    ``cache_dir``, or a pre-built ``runner`` route the per-seed cells
    through the execution engine; ``journal_dir``/``resume`` make the grid
    crash-resumable (see :mod:`repro.runner.journal`). A cell that keeps
    failing is dropped from the aggregates (visible in
    :attr:`MultiRunResult.telemetry`).
    """
    from repro.metrics.io import comparison_from_dict

    engine = _make_runner(jobs, cache_dir, runner, journal_dir, resume)
    specs = [
        comparison_spec(variant, zigbee_channel=zigbee_channel, seed=seed, **kwargs)
        for seed in seeds
    ]
    outcomes = engine.run(specs)
    result = MultiRunResult(
        variant=variant,
        zigbee_channel=zigbee_channel,
        seeds=list(seeds),
        pdr=AggregateMetric(),
        tx_per_control=AggregateMetric(),
        duty_cycle=AggregateMetric(),
        latency=AggregateMetric(),
        telemetry=engine.last_report,
    )
    for outcome in outcomes:
        if outcome.result is None:
            continue
        run = comparison_from_dict(outcome.result)
        result.runs.append(run)
        result.pdr.add(run.pdr)
        result.tx_per_control.add(run.tx_per_control)
        result.duty_cycle.add(run.duty_cycle)
        result.latency.add(run.mean_latency)
    return result


@dataclass
class SweepPoint:
    """One configuration's outcome in a sweep."""

    x: float
    pdr: Optional[float]
    duty_cycle: Optional[float]
    mean_latency: Optional[float]
    detail: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (the runner's wire/cache format)."""
        return {
            "x": self.x,
            "pdr": self.pdr,
            "duty_cycle": self.duty_cycle,
            "mean_latency": self.mean_latency,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepPoint":
        """Inverse of :meth:`to_dict`."""
        return cls(
            x=cast(float, data["x"]),
            pdr=cast(Optional[float], data["pdr"]),
            duty_cycle=cast(Optional[float], data["duty_cycle"]),
            mean_latency=cast(Optional[float], data["mean_latency"]),
            detail=dict(cast(Dict[str, float], data.get("detail") or {})),
        )


def _control_round(
    net: Network, n_controls: int, interval_s: float
) -> None:
    schedule = ControlSchedule(
        net.sim,
        send=lambda destination, index: net.send_control(destination, payload=index),
        destinations=net.non_sink_nodes(),
        interval=round(interval_s * SECOND),
        count=n_controls,
        rng_name="sweep-controls",
    )
    schedule.start(initial_delay=1 * SECOND)
    net.run(n_controls * interval_s + 60.0)


def wake_interval_point(
    wake_ms: int,
    protocol: str = "tele",
    seed: int = 1,
    n_controls: int = 12,
    converge_seconds: float = 240.0,
) -> SweepPoint:
    """One wake-interval sweep cell (top-level so workers can run it)."""
    params = MacParams(wake_interval=wake_ms * MILLISECOND)
    net = Network(
        NetworkConfig(
            topology="indoor-testbed",
            protocol=protocol,
            seed=seed,
            mac_params=params,
        )
    )
    net.converge(max_seconds=converge_seconds, target=0.95)
    net.metrics.mark()
    _control_round(net, n_controls, interval_s=45.0)
    metrics = net.control_metrics
    return SweepPoint(
        x=float(wake_ms),
        pdr=metrics.pdr(),
        duty_cycle=net.metrics.mean_duty_cycle(),
        mean_latency=metrics.mean_latency(),
    )


def network_size_point(
    size: int,
    field_density: float = 170.0,
    seed: int = 1,
    n_controls: int = 10,
) -> SweepPoint:
    """One network-size sweep cell (top-level so workers can run it)."""
    side = (size * field_density) ** 0.5
    deployment = random_uniform(n=size, width=side, height=side, seed=seed)
    net = Network(
        NetworkConfig(
            topology=deployment,
            protocol="tele",
            seed=seed,
            always_on=True,
            collection_ipi=None,
            fading_sigma_db=0.0,
        )
    )
    net.converge(max_seconds=300.0, target=0.95)
    codes = [
        adapter.path_code.length
        for adapter in net.protocols.values()
        if isinstance(adapter, TeleProtocolAdapter) and adapter.path_code is not None
    ]
    net.metrics.mark()
    _control_round(net, n_controls, interval_s=20.0)
    metrics = net.control_metrics
    return SweepPoint(
        x=float(size),
        pdr=metrics.pdr(),
        duty_cycle=net.metrics.mean_duty_cycle(),
        mean_latency=metrics.mean_latency(),
        detail={
            "max_code_bits": float(max(codes)) if codes else 0.0,
            "mean_code_bits": mean([float(c) for c in codes]) or 0.0,
            "coded_fraction": net.coded_fraction(),
        },
    )


def _run_points(
    specs: List[TaskSpec],
    jobs: int,
    cache_dir: Optional[str],
    runner: Optional[ParallelRunner],
    journal_dir: Optional[str] = None,
    resume: bool = False,
) -> List[SweepPoint]:
    engine = _make_runner(jobs, cache_dir, runner, journal_dir, resume)
    outcomes: List[RunnerOutcome] = engine.run(specs)
    return [
        SweepPoint.from_dict(o.result) for o in outcomes if o.result is not None
    ]


def sweep_wake_interval(
    wake_intervals_ms: Sequence[int] = (256, 512, 1024),
    protocol: str = "tele",
    seed: int = 1,
    n_controls: int = 12,
    converge_seconds: float = 240.0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    runner: Optional[ParallelRunner] = None,
    journal_dir: Optional[str] = None,
    resume: bool = False,
) -> List[SweepPoint]:
    """Latency/duty trade-off across LPL wake intervals.

    Expected shape: latency grows roughly linearly with the wake interval
    (per-hop rendezvous cost), idle duty cycle shrinks with it.
    """
    specs = [
        wake_interval_spec(
            wake_ms,
            protocol=protocol,
            seed=seed,
            n_controls=n_controls,
            converge_seconds=converge_seconds,
        )
        for wake_ms in wake_intervals_ms
    ]
    return _run_points(specs, jobs, cache_dir, runner, journal_dir, resume)


def sweep_network_size(
    sizes: Sequence[int] = (10, 20, 40),
    field_density: float = 170.0,
    seed: int = 1,
    n_controls: int = 10,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    runner: Optional[ParallelRunner] = None,
    journal_dir: Optional[str] = None,
    resume: bool = False,
) -> List[SweepPoint]:
    """Scalability: code length and delivery as the network grows.

    ``field_density`` is square metres per node; the field area scales with
    the node count so density (and hence tree depth growth) stays realistic.
    """
    specs = [
        network_size_spec(
            size, field_density=field_density, seed=seed, n_controls=n_controls
        )
        for size in sizes
    ]
    return _run_points(specs, jobs, cache_dir, runner, journal_dir, resume)
