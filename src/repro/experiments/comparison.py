"""Protocol-comparison runs: Figures 7–10 and Table III.

One :func:`run_comparison` call reproduces one cell of the paper's testbed
matrix: {TeleAdjusting, Re-Tele, Drip, RPL} × {channel 26, channel 19}. The
result object carries every aggregate the tables/figures need, so the bench
for each figure re-slices the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.harness import Network, NetworkConfig
from repro.metrics.control import ControlMetrics
from repro.protocols import resolve_variant, variant_names
from repro.sim.units import SECOND
from repro.workloads.control import ControlSchedule

#: Protocol front-end names accepted by :func:`run_comparison`, snapshotted
#: from the protocol registry at import time. The paper evaluates the first
#: four; "orpl" is our extension baseline (related work [22], included to
#: quantify the bloom-false-positive criticism). Protocols registered later
#: via :func:`repro.protocols.register_protocol` are accepted too — call
#: :func:`repro.protocols.variant_names` for the live list.
VARIANTS = tuple(variant_names())

#: Default schedule of :func:`run_comparison`, shared with the runner's
#: :func:`repro.runner.taskspec.comparison_spec` so a spec built with
#: defaults hashes identically to a call made with defaults.
COMPARISON_DEFAULTS = {
    "n_controls": 30,
    "control_interval_s": 15.0,
    "converge_seconds": 240.0,
    "drain_seconds": 60.0,
}

#: The schedule of every paper-figure cell (Figures 7–10, Table III): 25
#: controls a minute apart after 240 s of convergence, then 60 s of drain.
#: ``repro run``'s comparison grids, ``repro all`` and the benchmarks run it.
FIGURE_SCHEDULE = {
    "n_controls": 25,
    "control_interval_s": 60.0,
    "converge_seconds": 240.0,
    "drain_seconds": 60.0,
}


@dataclass
class ComparisonResult:
    """Everything one run contributes to Figures 7–10 / Table III."""

    variant: str
    zigbee_channel: int
    seed: int
    n_controls: int
    pdr: Optional[float]
    pdr_by_hop: Dict[int, float]
    latency_by_hop: Dict[int, float]
    mean_latency: Optional[float]
    tx_per_control: Optional[float]
    duty_cycle: Optional[float]
    athx_samples: List[Tuple[int, int]] = field(default_factory=list)
    control_metrics: Optional[ControlMetrics] = None
    #: Kernel events dispatched during the run (the events/sec numerator in
    #: runner telemetry and the BENCH_kernel.json perf canary).
    events_executed: Optional[int] = None


def config_for(variant: str, channel: int, seed: int) -> NetworkConfig:
    """The :class:`NetworkConfig` one comparison cell runs on.

    Exposed (rather than inlined in :func:`_network_for`) so the runner's
    cache key can fingerprint the *derived* configuration: any change to
    this mapping invalidates cached cells.
    """
    protocol, overrides = resolve_variant(variant)
    return NetworkConfig(
        topology="indoor-testbed",
        protocol=protocol,
        seed=seed,
        zigbee_channel=channel,
        **overrides,
    )


def _network_for(variant: str, channel: int, seed: int) -> Network:
    return Network(config_for(variant, channel, seed))


def run_comparison(
    variant: str,
    zigbee_channel: int = 26,
    seed: int = 0,
    n_controls: int = COMPARISON_DEFAULTS["n_controls"],
    control_interval_s: float = COMPARISON_DEFAULTS["control_interval_s"],
    converge_seconds: float = COMPARISON_DEFAULTS["converge_seconds"],
    drain_seconds: float = COMPARISON_DEFAULTS["drain_seconds"],
) -> ComparisonResult:
    """Run the paper's testbed experiment for one protocol/channel cell.

    The paper sends one control packet per minute for hours; we compress the
    schedule (default one per 15 s simulated, ``n_controls`` packets), which
    preserves per-packet behaviour because requests don't overlap.
    """
    net = _network_for(variant, zigbee_channel, seed)
    net.converge(max_seconds=converge_seconds, target=0.97)
    settle = net.converge_settle_seconds()
    if settle > 0:
        # e.g. RPL's DAOs deserve one extra beat after coverage looks done.
        net.run(settle)
    net.metrics.mark()
    schedule = ControlSchedule(
        net.sim,
        send=lambda destination, index: net.send_control(
            destination, payload={"index": index}
        ),
        destinations=net.non_sink_nodes(),
        interval=round(control_interval_s * SECOND),
        count=n_controls,
        rng_name=f"controls-{variant}-{zigbee_channel}-{seed}",
    )
    schedule.start(initial_delay=1 * SECOND)
    net.run(n_controls * control_interval_s + drain_seconds)
    metrics = net.control_metrics
    return ComparisonResult(
        variant=variant,
        zigbee_channel=zigbee_channel,
        seed=seed,
        n_controls=len(metrics),
        pdr=metrics.pdr(),
        pdr_by_hop=metrics.pdr_by_hop(),
        latency_by_hop=metrics.latency_by_hop(),
        mean_latency=metrics.mean_latency(),
        tx_per_control=net.metrics.tx_per_control_packet(len(metrics)),
        duty_cycle=net.metrics.mean_duty_cycle(),
        athx_samples=metrics.athx_samples(),
        control_metrics=metrics,
        events_executed=net.sim.events_executed,
    )
