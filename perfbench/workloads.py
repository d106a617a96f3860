"""The benchmark's workloads, their output checks, digests and work counters.

Each workload is a list of cells; a cell runs one public experiment
function (``run_comparison``, ``scale_point``, ``run_soak``) to completion
and reports its simulated outputs. Every cell is one benchmark operation:
it fails when an output check fails. Undelivered controls are simulated
outcomes (the WiFi-interfered channel loses some; the soak sends controls
to nodes that have died) and are reported as counts, not as failures.

Why these three (see README.md for the layer each one loads):

- ``testbed-ch19``: the paper's Figs 7-10 cell on the WiFi-interfered
  channel, five seeds as the paper averages five runs. Many cheap events:
  LPL CCA chains drawing CPM noise, about one receiver per transmission.
- ``city-1k``: two 1000-node forests on the spatial channel. About nine
  receivers per transmission, many CTP route evaluations, seconds of
  set-up and the largest memory footprint.
- ``soak-churn``: the testbed under waypoint mobility, battery deaths and
  600 s position reclamation: the write side (link re-pricing, reboots,
  re-coding) of what the other two only read.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.experiments.comparison import config_for, run_comparison
from repro.experiments.harness import Network
from repro.experiments.scale import scale_config, scale_point, scale_state_digest
from repro.experiments.soak import run_soak, soak_config

from clock import SlicedClock

#: The five comparison seeds of one testbed-ch19 run start at the run's seed.
TESTBED_SEEDS = 5
TESTBED_CONTROLS = 30  # run_comparison's default schedule
CITY_SIZE = 1000
#: Two forests per city-1k run: which forest a seed draws moves the cost
#: per event by up to ~10 %, so one forest alone read as host noise.
CITY_SEEDS = 2
CITY_CONTROLS = 5  # scale_point's default schedule
#: Battery sized so deaths start inside the soak; reclamation at 600 s.
SOAK_KNOBS = dict(
    churn_intensity=1.0, battery_mah=0.5, reclaim_ttl_s=600.0, converge_seconds=240.0
)
SOAK_SCHEDULE = dict(duration_s=900.0, window_s=300.0, control_interval_s=30.0, tail_windows=4)


@dataclass
class CellResult:
    """Simulated outputs of one cell."""

    digest: str
    counters: Dict[str, int]
    problems: List[str]


@dataclass
class Cell:
    """One experiment call of a workload."""

    label: str
    run: Callable[[SlicedClock], CellResult]
    #: Builds the cell's network once more (set-up repeats); discards it.
    build: Callable[[SlicedClock], Any]


@dataclass
class Workload:
    cells: Callable[[int], List[Cell]]
    #: Extra builds of the first cell's network, so set-up is a median.
    setup_repeats: int
    #: Kernel events of a typical pass (frozen): ``run_s`` is reported at
    #: this amount of simulated work, so a seed that simulates more does not
    #: read as a slower program.
    nominal_events: int


def work_counters(net: Any) -> Dict[str, int]:
    """Exact work counts read from a finished network's public state."""
    stacks = list(net.stacks.values())
    counters = {
        "sim.events": net.sim.events_executed,
        "channel.tx": sum(s.radio.tx_count for s in stacks),
        "lpl.trains": sum(getattr(s.mac, "trains_sent", 0) for s in stacks),
        "lpl.copies": sum(getattr(s.mac, "copies_sent", 0) for s in stacks),
        "lpl.acks": sum(getattr(s.mac, "acks_sent", 0) for s in stacks),
        "ctp.beacons": sum(s.routing.beacons_sent for s in stacks),
        "allocation.code_changes": 0,
        "allocation.reclaimed": 0,
        "forwarding.forwarded": 0,
        "forwarding.backtracks": 0,
        "forwarding.re_tele": 0,
        "mobility.moves": net.mobility.summary()["moves"] if net.mobility else 0,
        "battery.deaths": len(net.fault_injector.deaths) if net.fault_injector else 0,
        "streaming.windows": 0,
    }
    for adapter in net.protocols.values():
        allocation = getattr(adapter, "allocation", None)
        if allocation is not None:
            counters["allocation.code_changes"] += allocation.code_changes
            counters["allocation.reclaimed"] += allocation.positions_reclaimed
        forwarding = getattr(adapter, "forwarding", None)
        if forwarding is not None:
            counters["forwarding.forwarded"] += forwarding.controls_forwarded
            counters["forwarding.backtracks"] += forwarding.backtracks
            counters["forwarding.re_tele"] += forwarding.re_tele_invocations
    return counters


def _control_counts(net: Any) -> Dict[str, int]:
    records = net.control_metrics.records
    return {
        "controls.sent": len(records),
        "controls.delivered": sum(1 for r in records if r.delivered_at is not None),
    }


# ----------------------------------------------------------------- testbed
def _testbed_cell(seed: int) -> Cell:
    def run(clock: SlicedClock) -> CellResult:
        run_comparison("tele", zigbee_channel=19, seed=seed)
        net = clock.networks[-1]
        counters = {**work_counters(net), **_control_counts(net)}
        problems = []
        if counters["controls.sent"] != TESTBED_CONTROLS:
            problems.append(f"seed {seed}: {counters['controls.sent']} controls sent")
        return CellResult(scale_state_digest(net), counters, problems)

    def build(clock: SlicedClock) -> Any:
        return Network(config_for("tele", 19, seed))

    return Cell(f"tele-ch19-seed{seed}", run, build)


def testbed_cells(seed: int) -> List[Cell]:
    return [_testbed_cell(seed + i) for i in range(TESTBED_SEEDS)]


# -------------------------------------------------------------------- city
def _city_config(clock: SlicedClock, seed: int) -> Any:
    return clock.timed_config(lambda: scale_config("forest", CITY_SIZE, seed))


def _city_cell(seed: int) -> Cell:
    def run(clock: SlicedClock) -> CellResult:
        result = scale_point("forest", CITY_SIZE, seed, config=_city_config(clock, seed))
        net = clock.networks[-1]
        counters = {**work_counters(net), **_control_counts(net)}
        problems = []
        if not result["converged"]:
            problems.append(f"seed {seed}: city-1k did not converge")
        if counters["controls.sent"] != CITY_CONTROLS:
            problems.append(f"seed {seed}: {counters['controls.sent']} controls sent")
        return CellResult(result["state_digest"], counters, problems)

    def build(clock: SlicedClock) -> Any:
        return Network(_city_config(clock, seed))

    return Cell(f"forest-{CITY_SIZE}-seed{seed}", run, build)


def city_cells(seed: int) -> List[Cell]:
    return [_city_cell(seed + i) for i in range(CITY_SEEDS)]


# -------------------------------------------------------------------- soak
def _soak_config(clock: SlicedClock, seed: int) -> Any:
    return clock.timed_config(lambda: soak_config("tele", seed, 26, **SOAK_KNOBS))


def soak_cells(seed: int) -> List[Cell]:
    def run(clock: SlicedClock) -> CellResult:
        config = _soak_config(clock, seed)
        result = run_soak("tele", seed=seed, config=config, **SOAK_SCHEDULE, **SOAK_KNOBS)
        counters = work_counters(clock.networks[-1])
        counters["streaming.windows"] = result["windows"]
        counters["controls.sent"] = result["controls_sent"]
        counters["controls.delivered"] = result["controls_delivered"]
        problems = [
            f"seed {seed}: no {name}"
            for name in ("mobility.moves", "battery.deaths", "allocation.reclaimed")
            if counters[name] <= 0
        ]
        if counters["controls.sent"] <= 0:
            problems.append(f"seed {seed}: no controls sent")
        return CellResult(result["soak_digest"], counters, problems)

    def build(clock: SlicedClock) -> Any:
        return Network(_soak_config(clock, seed))

    return [Cell(f"soak-tele-seed{seed}", run, build)]


WORKLOADS: Dict[str, Workload] = {
    "testbed-ch19": Workload(testbed_cells, setup_repeats=5, nominal_events=3_500_000),
    "city-1k": Workload(city_cells, setup_repeats=1, nominal_events=720_000),
    "soak-churn": Workload(soak_cells, setup_repeats=6, nominal_events=1_650_000),
}


def combined_digest(digests: List[str]) -> str:
    """One token for a whole pass: sha256 over the cells' digests, in order."""
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()
