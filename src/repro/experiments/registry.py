"""The experiment registry: one :class:`Experiment` record per task kind.

A record says everything the rest of the stack needs to know about one
kind of experiment cell:

- :func:`repro.runner.execute.execute_spec` calls :meth:`Experiment.run`
  to run a :class:`~repro.runner.TaskSpec` of that kind in a worker;
- the runner's telemetry reads :attr:`Experiment.sim_seconds` for the
  scheduled simulated seconds of a cell;
- ``python -m repro run <grid>`` takes its grid names from
  :attr:`Experiment.grids`, builds the cells with :attr:`Experiment.expand`
  and prints them with :attr:`Experiment.render`.

Adding a kind means adding its spec builder (``repro.runner.taskspec``)
and one record to :data:`EXPERIMENTS` below.

The runner imports this module only when a cell runs, never at import
time: the drivers (``repro.experiments.sweep`` among them) import
``repro.runner`` themselves. A record names its driver by dotted path and
resolves it on every call, so a monkeypatched driver is the one that runs.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter, methodcaller
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments import report
from repro.experiments.chaos import chaos_grid_specs
from repro.experiments.codestats import construction_stats, mean_reverse_ratio
from repro.experiments.comparison import FIGURE_SCHEDULE, ComparisonResult
from repro.experiments.lora import lora_grid_specs
from repro.experiments.report import fmt
from repro.experiments.soak import soak_grid_rows
from repro.experiments.sweep import AggregateMetric
from repro.metrics.control import ControlMetrics
from repro.metrics.io import comparison_from_dict, comparison_to_dict
from repro.metrics.stats import mean, percentile
from repro.runner import RunnerOutcome, TaskSpec
from repro.runner.taskspec import (
    comparison_spec,
    construction_spec,
    scale_spec,
    soak_spec,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from argparse import Namespace

Params = Mapping[str, Any]
Row = List[object]
#: Prints a grid's tables; returns its CSV headers and rows (a paper
#: figure's rows, or one row per cell).
Renderer = Callable[["Namespace", Sequence[RunnerOutcome]], Tuple[List[str], List[Row]]]


def _as_is(result: Any) -> Dict[str, Any]:
    return result


@dataclass(frozen=True)
class Experiment:
    """Everything the runner and the CLI need to know about one task kind."""

    #: ``TaskSpec.kind``; part of every fingerprint, so it never changes.
    kind: str
    #: Dotted path of the driver, called as
    #: ``driver(**params without config and schedule, **schedule)``.
    driver: str
    #: Scheduled simulated seconds of one cell, from its spec params.
    sim_seconds: Callable[[Params], float]
    #: Turns the driver's return value into the JSON-ready cell result.
    to_json: Callable[[Any], Dict[str, Any]] = _as_is
    #: ``repro run`` grid names this kind serves (none: not a CLI grid).
    grids: Tuple[str, ...] = ()
    #: Parsed ``repro run`` arguments → the grid's specs, in cell order.
    expand: Optional[Callable[["Namespace"], List[TaskSpec]]] = None
    render: Optional[Renderer] = None

    def run(self, params: Params) -> Dict[str, Any]:
        """Run one cell's driver and return its JSON-ready result."""
        module, name = self.driver.rsplit(".", 1)
        driver = getattr(importlib.import_module(module), name)
        arguments = {k: v for k, v in params.items() if k not in ("config", "schedule")}
        return self.to_json(driver(**arguments, **params.get("schedule", {})))


def run_selftest(index: int, sleep_s: float, payload: int) -> Dict[str, int]:
    """Cheap deterministic cell for engine tests (no simulation)."""
    if sleep_s:
        time.sleep(sleep_s)
    # Deterministic arithmetic so result equality is checkable across paths.
    return {"index": index, "value": (index * 2654435761 + payload) % 2**31}


def _scheduled_seconds(params: Params) -> float:
    s = params["schedule"]
    return (
        s["converge_seconds"]
        + s["n_controls"] * s["control_interval_s"]
        + s["drain_seconds"]
    )


# ------------------------------------------------------------ grid expansion

def _cli_schedule(args: "Namespace", **defaults: float) -> Dict[str, float]:
    """The schedule flags given on the command line, over ``defaults``."""
    given = {
        "n_controls": args.controls,
        "control_interval_s": args.interval,
        "converge_seconds": args.converge,
        "drain_seconds": args.drain,
    }
    return {**defaults, **{k: v for k, v in given.items() if v is not None}}


def _construction_specs(args: "Namespace") -> List[TaskSpec]:
    return [
        construction_spec(topology, seed)
        for topology in CONSTRUCTION_FIGURES[args.grid].over
        for seed in args.seeds
    ]


def _comparison_specs(args: "Namespace") -> List[TaskSpec]:
    # Channels default to the paper's clean channel (26), except Table III's
    # full matrix, which runs both.
    channels = args.channels
    if channels is None:
        channels = [26, 19] if args.grid in ("compare", "table3") else [26]
    schedule = _cli_schedule(args, **FIGURE_SCHEDULE)
    return [
        comparison_spec(variant, zigbee_channel=channel, seed=seed, **schedule)
        for channel in channels
        for variant in COMPARISON_FIGURES[args.grid].over
        for seed in args.seeds
    ]


def _chaos_specs(args: "Namespace") -> List[TaskSpec]:
    return chaos_grid_specs(
        args.variants,
        args.intensities,
        args.seeds,
        scenario=args.scenario,
        **_cli_schedule(args, n_controls=20, control_interval_s=60.0),
    )


def _lora_specs(args: "Namespace") -> List[TaskSpec]:
    return lora_grid_specs(
        args.lora_variants,
        args.seeds,
        radio_profile=args.radio_profile,
        **_cli_schedule(args),
    )


def _scale_specs(args: "Namespace") -> List[TaskSpec]:
    return [
        scale_spec(
            topo, size=size, seed=seed, spatial_index=not args.dense, **_cli_schedule(args)
        )
        for topo in args.topos
        for size in args.sizes
        for seed in args.seeds
    ]


def _soak_specs(args: "Namespace") -> List[TaskSpec]:
    given = {
        "duration_s": args.duration,
        "window_s": args.window,
        "control_interval_s": args.interval,
        "converge_seconds": args.converge,
    }
    schedule: Dict[str, Optional[float]] = {
        k: v for k, v in given.items() if v is not None
    }
    if args.battery_mah is not None:
        schedule["battery_mah"] = args.battery_mah or None  # 0 disables depletion
    return [
        soak_spec(
            variant, seed=seed, zigbee_channel=26, churn_intensity=intensity, **schedule
        )
        for variant in args.variants
        for intensity in args.intensities
        for seed in args.seeds
    ]


# --------------------------------------------------------------- rendering

def _cells(
    outcomes: Sequence[RunnerOutcome],
    lead: Callable[[Params, Optional[Dict[str, Any]]], Row],
    metrics: Callable[[Dict[str, Any]], Row],
    width: int,
) -> List[Row]:
    """Per-cell rows: lead columns, status, then the metrics ("-" if failed)."""
    return [
        [
            *lead(o.spec.params, o.result),
            o.status,
            *(["-"] * width if o.result is None else metrics(o.result)),
        ]
        for o in outcomes
    ]


def _aggregate(
    outcomes: Sequence[RunnerOutcome],
    key: Callable[[Params], tuple],
    picks: Sequence[Callable[[Dict[str, Any]], Optional[float]]],
) -> List[Row]:
    """One row per key: the key, then each picked metric's seed summary."""
    cells: Dict[tuple, List[AggregateMetric]] = {}
    for outcome in outcomes:
        if outcome.result is None:
            continue
        metrics = cells.setdefault(
            key(outcome.spec.params), [AggregateMetric() for _ in picks]
        )
        for metric, pick in zip(metrics, picks):
            metric.add(pick(outcome.result))
    return [
        [*k, *(metric.summary() for metric in metrics)]
        for k, metrics in sorted(cells.items())
    ]


@dataclass(frozen=True)
class Figure:
    """A paper figure's grid: its cells, and its table per channel or topology."""

    #: The variants (comparison) or topologies (construction) it runs.
    over: Tuple[str, ...]
    headers: List[str]
    #: Table title; ``{}`` takes the channel or topology.
    title: str
    #: (channel or topology, its cells' combined results) → the rows.
    rows: Callable[[Any, Any], List[Row]]
    #: Appended to the title: a summary of the combined results.
    note: Optional[Callable[[Any], str]] = None
    #: Rows printed per table; the CSV keeps every row.
    shown: Optional[int] = None
    #: Whether the CSV leads with the channel or topology (no when the rows
    #: carry it already).
    keyed: bool = True


def _results_by(outcomes: Sequence[RunnerOutcome], param: str) -> Dict[Any, List[Dict[str, Any]]]:
    """Finished cells' results grouped by one spec parameter, in cell order."""
    groups: Dict[Any, List[Dict[str, Any]]] = {}
    for outcome in outcomes:
        if outcome.result is not None:
            groups.setdefault(outcome.spec.params[param], []).append(outcome.result)
    return groups


def _render_figure(
    figure: Figure, key: str, groups: Mapping[Any, Any], per_cell: str
) -> Tuple[List[str], List[Row]]:
    """Print the per-cell table, then one figure table per group; return the
    figure's CSV headers and rows."""
    tables = [per_cell]
    csv_rows: List[Row] = []
    for group, combined in groups.items():
        rows = figure.rows(group, combined)
        title = figure.title.format(group)
        if figure.note is not None:
            title += f" ({figure.note(combined)})"
        shown = rows
        if figure.shown is not None and len(rows) > figure.shown:
            shown = rows[: figure.shown] + [["…"] * len(figure.headers)]
        tables.append(report.ascii_table(figure.headers, shown, title=title))
        csv_rows += [[group, *row] for row in rows] if figure.keyed else rows
    print("\n\n".join(tables))
    return ([key] if figure.keyed else []) + figure.headers, csv_rows


def _average(values: Iterable[Optional[float]]) -> Optional[float]:
    return mean([value for value in values if value is not None])


def _average_by_hop(maps: Iterable[Dict[int, float]]) -> Dict[int, float]:
    grouped: Dict[int, List[float]] = defaultdict(list)
    for by_hop in maps:
        for hop, value in by_hop.items():
            grouped[hop].append(value)
    return {hop: sum(values) / len(values) for hop, values in sorted(grouped.items())}


def _merge_seeds(results: Sequence[ComparisonResult]) -> ComparisonResult:
    """One variant's seeds as one result.

    Ratios and means (PDR, latency, transmissions, duty cycle, and their
    by-hop maps) are averaged over the seeds; distributions (the ATHX
    samples and the control records) are pooled.
    """
    metrics = [r.control_metrics for r in results if r.control_metrics is not None]
    pooled = None
    if len(metrics) == len(results):
        pooled = ControlMetrics()
        for m in metrics:
            pooled.records += m.records
    return dataclasses.replace(
        results[0],
        pdr=_average(r.pdr for r in results),
        pdr_by_hop=_average_by_hop(r.pdr_by_hop for r in results),
        latency_by_hop=_average_by_hop(r.latency_by_hop for r in results),
        mean_latency=_average(r.mean_latency for r in results),
        tx_per_control=_average(r.tx_per_control for r in results),
        duty_cycle=_average(r.duty_cycle for r in results),
        athx_samples=[sample for r in results for sample in r.athx_samples],
        control_metrics=pooled,
    )


def _by_variant(results: Sequence[Dict[str, Any]]) -> Dict[str, ComparisonResult]:
    runs: Dict[str, List[ComparisonResult]] = {}
    for result in results:
        runs.setdefault(result["variant"], []).append(comparison_from_dict(result))
    return {variant: _merge_seeds(seeds) for variant, seeds in runs.items()}


def _athx_ratios(results: Dict[str, ComparisonResult]) -> str:
    ratios = {v: r.control_metrics for v, r in sorted(results.items())}
    return "mean ATHX/CTP hops: " + ", ".join(
        f"{v} {fmt(None if m is None else m.mean_athx_ratio(), '.3f')}" for v, m in ratios.items()
    )


_TABLE3 = Figure(
    ("tele", "re-tele", "rpl", "drip"),
    report.COMPARISON_HEADERS,
    "Table III / Figure 9: protocol summary, channel {}",
    lambda ch, results: report.comparison_rows({(v, ch): r for v, r in results.items()}),
    keyed=False,
)
#: Comparison grid → its figure (``compare`` is Table III's older name).
COMPARISON_FIGURES: Dict[str, Figure] = {
    "fig7": Figure(
        ("drip", "re-tele", "tele", "rpl"),
        ["protocol", "hop", "pdr"],
        "Figure 7: PDR by hop, channel {}",
        lambda ch, results: report.pdr_by_hop_rows(results),
    ),
    "fig8": Figure(
        ("tele", "rpl"),
        ["protocol", "ctp_hops", "athx"],
        "Figure 8: ATHX vs CTP hops, channel {}",
        lambda ch, results: report.athx_rows(results),
        note=_athx_ratios,
    ),
    "fig10": Figure(
        ("drip", "tele", "rpl"),
        ["protocol", "hop", "latency_s"],
        "Figure 10: latency by hop, channel {}",
        lambda ch, results: report.latency_by_hop_rows(results),
    ),
    "table3": _TABLE3,
    "compare": _TABLE3,
}


def _render_comparison(
    args: "Namespace", outcomes: Sequence[RunnerOutcome]
) -> Tuple[List[str], List[Row]]:
    """The per-cell table, then the figure per channel.

    Each variant's seeds are merged by :func:`_merge_seeds`: Figure 7's
    PDR and Figure 10's latency by hop and Table III's columns are averaged
    over the seeds; Figure 8's ATHX samples, and the mean ATHX/CTP-hop
    ratio in its title, pool them.
    """
    headers = ["variant", "ch", "seed", "status", "pdr", "tx/ctl", "duty%", "latency_s"]
    rows = _cells(
        outcomes,
        lambda p, r: [p["variant"], p["zigbee_channel"], p["seed"]],
        lambda r: report.comparison_metrics(comparison_from_dict(r)),
        width=4,
    )
    groups = _results_by(outcomes, "zigbee_channel")
    return _render_figure(
        COMPARISON_FIGURES[args.grid],
        "channel",
        {channel: _by_variant(results) for channel, results in groups.items()},
        report.ascii_table(headers, rows, title=f"Grid {args.grid}: per-cell results"),
    )


def _concat(stats: Sequence[Dict[str, Any]], key: str) -> List[Any]:
    return [item for one_seed in stats for item in one_seed[key]]


def _pooled_by_hop(stats: Sequence[Dict[str, Any]], key: str) -> Dict[int, List[int]]:
    pooled: Dict[int, List[int]] = defaultdict(list)
    for hop, values in _concat(stats, key):
        pooled[hop] += values
    return pooled


FIGURE_6_FIELDS = ("tight-grid", "sparse-linear")
_CODE_LENGTHS = Figure(
    FIGURE_6_FIELDS,
    report.CODE_LENGTH_HEADERS,
    "Path-code length by hop — {}",
    lambda t, stats: report.code_length_rows(_pooled_by_hop(stats, "code_length_by_hop")),
)
#: Construction grid → its figure. The four Figure 6 grids share their two
#: fields' cells, so one cache serves all four; Table II runs the indoor
#: testbed.
CONSTRUCTION_FIGURES: Dict[str, Figure] = {
    "fig6a": _CODE_LENGTHS,
    "fig6b": Figure(
        FIGURE_6_FIELDS,
        report.CHILDREN_HEADERS,
        "Children by hop — {}",
        lambda t, stats: report.children_rows(_pooled_by_hop(stats, "children_by_hop")),
    ),
    "fig6c": Figure(
        FIGURE_6_FIELDS,
        report.CONVERGENCE_HEADERS,
        "Convergence — {}",
        lambda t, stats: report.convergence_rows(_concat(stats, "convergence_beacons")),
    ),
    "fig6d": Figure(
        FIGURE_6_FIELDS,
        ["ctp_hops", "reverse_hops"],
        "Reverse vs CTP hop count — {}",
        lambda t, stats: sorted(_concat(stats, "reverse_hops")),
        note=lambda stats: "avg ratio "
        + fmt(mean_reverse_ratio(_concat(stats, "reverse_hops")), ".3f")
        + "; paper ≈ 1.08",
        shown=30,
    ),
    "table2": dataclasses.replace(_CODE_LENGTHS, over=("indoor-testbed",)),
}


def _construction_metrics(result: Dict[str, Any]) -> Row:
    lengths = [n for _, values in result["code_length_by_hop"] for n in values]
    return [
        len(lengths),
        max(lengths, default="n/a"),
        fmt(percentile(result["convergence_beacons"], 50), ".1f"),
    ]


def _render_construction(
    args: "Namespace", outcomes: Sequence[RunnerOutcome]
) -> Tuple[List[str], List[Row]]:
    """The per-cell table, then the figure per topology, seeds pooled: every
    statistic, the Figure 6(d) ratio included, is taken over all the seeds'
    nodes together."""
    headers = ["topology", "seed", "status", "coded", "max_bits", "median_beacons"]
    rows = _cells(outcomes, lambda p, r: [p["topology"], p["seed"]], _construction_metrics, width=3)
    return _render_figure(
        CONSTRUCTION_FIGURES[args.grid],
        "topology",
        _results_by(outcomes, "topology"),
        report.ascii_table(headers, rows, title=f"Grid {args.grid}: per-cell results"),
    )


def _chaos_metrics(result: Dict[str, Any]) -> Row:
    recovery = result["recovery"]
    return [
        fmt(result["pdr"], ".3f"),
        fmt(recovery["mean_recovery_latency_s"], ".1f"),
        recovery["backtracks"],
        recovery["re_tele_invocations"],
        recovery["stale_code_sends"],
    ]


def _render_chaos(
    args: "Namespace", outcomes: Sequence[RunnerOutcome]
) -> Tuple[List[str], List[Row]]:
    headers = [
        "variant", "intensity", "seed", "status",
        "pdr", "recovery_s", "backtracks", "re_tele", "stale",
    ]
    rows = _cells(
        outcomes,
        lambda p, r: [p["variant"], p["intensity"], p["seed"]],
        _chaos_metrics,
        width=5,
    )
    # The degradation curve: how delivery and recovery latency bend as the
    # fault intensity rises, per variant.
    curve = _aggregate(
        outcomes,
        lambda p: (p["variant"], p["intensity"]),
        [itemgetter("pdr"), lambda r: r["recovery"]["mean_recovery_latency_s"]],
    )
    tables = [
        report.ascii_table(
            headers, rows, title=f"Chaos grid ({args.scenario}): per-cell results"
        ),
        report.ascii_table(
            ["variant", "intensity", "pdr", "recovery_s"],
            curve,
            title=f"Chaos degradation curve ({args.scenario}, n={len(args.seeds)} seeds)",
        ),
    ]
    print("\n\n".join(tables))
    return headers, rows


def _render_lora(
    args: "Namespace", outcomes: Sequence[RunnerOutcome]
) -> Tuple[List[str], List[Row]]:
    headers = ["variant", "seed", "status", "pdr", "latency_s", "tx/ctl"]
    rows = _cells(
        outcomes,
        lambda p, r: [p["variant"], p["seed"]],
        lambda r: [
            fmt(r["pdr"], ".3f"),
            fmt(r["mean_latency_s"], ".1f"),
            fmt(r["tx_per_control"], ".2f"),
        ],
        width=3,
    )
    tables = [
        report.ascii_table(
            headers, rows, title=f"Long-range grid ({args.radio_profile}): per-cell results"
        )
    ]
    if len(args.seeds) > 1:
        rows_by_seed = _aggregate(
            outcomes,
            lambda p: (p["variant"],),
            [itemgetter("pdr"), itemgetter("mean_latency_s"), itemgetter("tx_per_control")],
        )
        tables.append(
            report.ascii_table(
                ["variant", "pdr", "latency_s", "tx/ctl"],
                rows_by_seed,
                title=f"Long-range grid ({args.radio_profile}, n={len(args.seeds)} seeds)",
            )
        )
    print("\n\n".join(tables))
    return headers, rows


def _render_scale(
    args: "Namespace", outcomes: Sequence[RunnerOutcome]
) -> Tuple[List[str], List[Row]]:
    headers = [
        "topo", "nodes", "seed", "status",
        "pdr", "latency_s", "converged", "events", "events/s",
    ]
    rows = _cells(
        outcomes,
        # A finished cell reports the generated deployment's real size.
        lambda p, r: [p["topo"], (r or p)["size"], p["seed"]],
        lambda r: [
            fmt(r["pdr"], ".3f"),
            fmt(r["mean_latency_s"], ".3f"),
            "yes" if r["converged"] else "NO",
            r["events_executed"],
            fmt(r["events_per_sec"], ",.0f"),
        ],
        width=5,
    )
    print(report.ascii_table(headers, rows, title="Scale grid: per-cell results"))
    return headers, rows


def _render_soak(
    args: "Namespace", outcomes: Sequence[RunnerOutcome]
) -> Tuple[List[str], List[Row]]:
    headers = [
        "variant", "churn", "seed", "status",
        "delivery", "latency_s", "deaths", "reclaimed", "events", "events/s",
    ]
    rows = _cells(
        outcomes,
        lambda p, r: [p["variant"], f"{p['schedule']['churn_intensity']:g}", p["seed"]],
        lambda r: [
            fmt(r["delivery"], ".3f"),
            fmt(r["mean_latency_s"], ".3f"),
            r["deaths"],
            r["positions_reclaimed"],
            r["events_executed"],
            fmt(r["events_per_sec"], ",.0f"),
        ],
        width=6,
    )
    tables = [report.ascii_table(headers, rows, title="Soak grid: per-cell results")]
    results = [o.result for o in outcomes if o.result is not None]
    if results:
        # Degradation tail of the worst cell (lowest whole-run delivery):
        # the curve the short grids cannot show.
        worst = min(
            results, key=lambda r: r["delivery"] if r["delivery"] is not None else 1.0
        )
        tail = [
            [
                f"{row['t_s']:.0f}",
                fmt(row["delivery"], ".3f"),
                fmt(row["latency_mean_s"], ".3f"),
                fmt(None if row["duty_cycle"] is None else row["duty_cycle"] * 100, ".2f"),
                row["re_tele"],
                row["backtracks"],
                fmt(row["alive"], ""),
                row["reclaimed"],
            ]
            for row in soak_grid_rows(worst)
        ]
        if tail:
            tables.append(
                report.ascii_table(
                    [
                        "t_s", "delivery", "latency_s", "duty%",
                        "re_tele", "backtracks", "alive", "reclaimed",
                    ],
                    tail,
                    title=(
                        f"Degradation tail: {worst['variant']} "
                        f"churn={worst['churn_intensity']:g} seed={worst['seed']}"
                    ),
                )
            )
    print("\n\n".join(tables))
    return headers, rows


# ---------------------------------------------------------------- the table

#: Task kind → its record. The only place a kind is wired up.
EXPERIMENTS: Dict[str, Experiment] = {
    record.kind: record
    for record in (
        Experiment(
            kind="comparison",
            driver="repro.experiments.comparison.run_comparison",
            sim_seconds=_scheduled_seconds,
            to_json=comparison_to_dict,
            grids=tuple(COMPARISON_FIGURES),
            expand=_comparison_specs,
            render=_render_comparison,
        ),
        # A cell converges for at most its topology's budget.
        Experiment(
            kind="construction",
            driver="repro.experiments.codestats.code_construction_run",
            sim_seconds=lambda p: p["schedule"]["max_seconds"],
            to_json=construction_stats,
            grids=tuple(CONSTRUCTION_FIGURES),
            expand=_construction_specs,
            render=_render_construction,
        ),
        Experiment(
            kind="chaos",
            driver="repro.experiments.chaos.run_chaos",
            sim_seconds=_scheduled_seconds,
            grids=("chaos",),
            expand=_chaos_specs,
            render=_render_chaos,
        ),
        Experiment(
            kind="lora",
            driver="repro.experiments.lora.run_lora",
            sim_seconds=_scheduled_seconds,
            grids=("lora",),
            expand=_lora_specs,
            render=_render_lora,
        ),
        # The sweep points send controls 45 s (wake interval) or 20 s
        # (network size) apart, then drain for 60 s.
        Experiment(
            kind="wake-interval",
            driver="repro.experiments.sweep.wake_interval_point",
            sim_seconds=lambda p: p["converge_seconds"] + p["n_controls"] * 45.0 + 60.0,
            to_json=methodcaller("to_dict"),
        ),
        Experiment(
            kind="network-size",
            driver="repro.experiments.sweep.network_size_point",
            # network_size_point converges for at most 300 s.
            sim_seconds=lambda p: 300.0 + p["n_controls"] * 20.0 + 60.0,
            to_json=methodcaller("to_dict"),
        ),
        Experiment(
            kind="scale",
            driver="repro.experiments.scale.scale_point",
            sim_seconds=_scheduled_seconds,
            grids=("scale",),
            expand=_scale_specs,
            render=_render_scale,
        ),
        Experiment(
            kind="soak",
            driver="repro.experiments.soak.run_soak",
            sim_seconds=lambda p: (
                p["schedule"]["converge_seconds"] + p["schedule"]["duration_s"]
            ),
            grids=("soak",),
            expand=_soak_specs,
            render=_render_soak,
        ),
        Experiment(
            kind="selftest",
            driver="repro.experiments.registry.run_selftest",
            sim_seconds=lambda p: 0.0,
        ),
    )
}

#: ``repro run`` grid name → the experiment that serves it.
GRIDS: Dict[str, Experiment] = {
    grid: record for record in EXPERIMENTS.values() for grid in record.grids
}
