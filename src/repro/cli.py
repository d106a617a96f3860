"""Command-line interface: regenerate any of the paper's tables/figures.

Examples::

    python -m repro table2                # indoor code lengths
    python -m repro fig6a --topology sparse-linear
    python -m repro fig7 --channel 19 --controls 20
    python -m repro table3 --seed 2
    python -m repro quickstart --destination 7
    python -m repro compare --csv out.csv

Every experiment command accepts ``--seed`` and prints an ASCII table;
``--csv PATH`` additionally writes machine-readable output.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro.experiments import report
from repro.experiments.codestats import (
    code_construction_run,
    code_length_by_hop,
    children_by_hop,
    convergence_beacons,
    mean_reverse_ratio,
    reverse_hop_counts,
)
from repro.experiments.comparison import ComparisonResult, run_comparison
from repro.experiments.registry import GRIDS
from repro.faults import CHAOS_SCENARIOS
from repro.metrics.stats import mean, percentile
from repro.protocols import variant_names

#: Exit-code contract for grid commands (documented in docs/operations.md):
#: 0 = every cell produced a result; 1 = at least one cell failed for good;
#: 3 = the run was interrupted (SIGINT/SIGTERM) and is resumable with
#: ``--resume``.
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INTERRUPTED = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _job_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _write_csv(path: Optional[str], headers, rows) -> None:
    if path is None:
        return
    with open(path, "w") as handle:
        handle.write(report.csv_table(headers, rows))
    print(f"(csv written to {path})")


def _cmd_code_lengths(args: argparse.Namespace) -> int:
    net = code_construction_run(topology=args.topology, seed=args.seed)
    by_hop = code_length_by_hop(net)
    rows = report.code_length_rows(by_hop)
    print(
        report.ascii_table(
            report.CODE_LENGTH_HEADERS,
            rows,
            title=f"Path-code length by hop — {args.topology} (seed {args.seed})",
        )
    )
    _write_csv(args.csv, report.CODE_LENGTH_HEADERS, rows)
    return 0


def _cmd_fig6b(args: argparse.Namespace) -> int:
    net = code_construction_run(topology=args.topology, seed=args.seed)
    grouped = children_by_hop(net)
    headers = ["hop", "n", "avg_children", "max_children"]
    rows = [
        [hop, len(counts), f"{mean(counts):.2f}", max(counts)]
        for hop, counts in sorted(grouped.items())
        if hop < 10**4
    ]
    print(report.ascii_table(headers, rows, title=f"Children by hop — {args.topology}"))
    _write_csv(args.csv, headers, rows)
    return 0


def _cmd_fig6c(args: argparse.Namespace) -> int:
    net = code_construction_run(topology=args.topology, seed=args.seed)
    beacons = convergence_beacons(net)
    headers = ["metric", "beacons (512 ms each)"]
    rows = [
        ["n", len(beacons)],
        ["median", f"{percentile(beacons, 50):.1f}"],
        ["p90", f"{percentile(beacons, 90):.1f}"],
        ["max", f"{max(beacons):.1f}"],
    ]
    print(report.ascii_table(headers, rows, title=f"Convergence — {args.topology}"))
    _write_csv(args.csv, headers, rows)
    return 0


def _cmd_fig6d(args: argparse.Namespace) -> int:
    net = code_construction_run(topology=args.topology, seed=args.seed)
    samples = reverse_hop_counts(net)
    ratio = mean_reverse_ratio(samples)
    headers = ["ctp_hops", "reverse_hops"]
    rows = sorted(samples)
    print(
        report.ascii_table(
            headers,
            rows[:30] + ([["…", "…"]] if len(rows) > 30 else []),
            title=(
                f"Reverse vs CTP hop count — {args.topology} "
                f"(avg ratio {ratio:.3f}; paper ≈ 1.08)"
            ),
        )
    )
    _write_csv(args.csv, headers, rows)
    return 0


def _run_matrix(args: argparse.Namespace, variants, channels) -> Dict[tuple, ComparisonResult]:
    results: Dict[tuple, ComparisonResult] = {}
    for channel in channels:
        for variant in variants:
            print(f"running {variant} on channel {channel}…", file=sys.stderr)
            results[(variant, channel)] = run_comparison(
                variant,
                zigbee_channel=channel,
                seed=args.seed,
                n_controls=args.controls,
                control_interval_s=args.interval,
            )
    return results


def _cmd_fig7(args: argparse.Namespace) -> int:
    variants = ("drip", "re-tele", "tele", "rpl")
    results = _run_matrix(args, variants, [args.channel])
    flat = {variant: results[(variant, args.channel)] for variant in variants}
    headers = ["protocol", "hop", "pdr"]
    rows = report.pdr_by_hop_rows(flat)
    print(
        report.ascii_table(
            headers, rows, title=f"Figure 7: PDR by hop, channel {args.channel}"
        )
    )
    _write_csv(args.csv, headers, rows)
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    results = _run_matrix(args, ("tele", "rpl"), [args.channel])
    flat = {v: results[(v, args.channel)] for v in ("tele", "rpl")}
    headers = ["protocol", "ctp_hops", "athx"]
    rows = report.athx_rows(flat)
    print(
        report.ascii_table(
            headers, rows, title=f"Figure 8: ATHX vs CTP hops, channel {args.channel}"
        )
    )
    _write_csv(args.csv, headers, rows)
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    variants = ("drip", "tele", "rpl")
    results = _run_matrix(args, variants, [args.channel])
    flat = {v: results[(v, args.channel)] for v in variants}
    headers = ["protocol", "hop", "latency_s"]
    rows = report.latency_by_hop_rows(flat)
    print(
        report.ascii_table(
            headers, rows, title=f"Figure 10: latency by hop, channel {args.channel}"
        )
    )
    _write_csv(args.csv, headers, rows)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    variants = tuple(args.variants)
    results = _run_matrix(args, variants, args.channels)
    rows = report.comparison_rows(results)
    print(
        report.ascii_table(
            report.COMPARISON_HEADERS,
            rows,
            title="Protocol comparison (Table III / Figures 7, 9, 10 summary)",
        )
    )
    _write_csv(args.csv, report.COMPARISON_HEADERS, rows)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    """Regenerate every paper experiment into a directory of CSV files."""
    from pathlib import Path

    from repro.experiments.codestats import children_by_hop
    from repro.metrics.io import save_results

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # --- construction experiments (Fig 6, Table II) ------------------------
    for topology, tag in (
        ("tight-grid", "fig6a_tight"),
        ("sparse-linear", "fig6a_sparse"),
        ("indoor-testbed", "table2_indoor"),
    ):
        print(f"construction: {topology}…", file=sys.stderr)
        net = code_construction_run(topology=topology, seed=args.seed)
        rows = report.code_length_rows(code_length_by_hop(net))
        (out / f"{tag}.csv").write_text(
            report.csv_table(report.CODE_LENGTH_HEADERS, rows)
        )
        grouped = children_by_hop(net)
        child_rows = [
            [hop, len(counts), f"{mean(counts):.2f}", max(counts)]
            for hop, counts in sorted(grouped.items())
            if hop < 10**4
        ]
        (out / f"{tag}_children.csv").write_text(
            report.csv_table(["hop", "n", "avg_children", "max_children"], child_rows)
        )
        beacons = convergence_beacons(net)
        (out / f"{tag}_convergence.csv").write_text(
            report.csv_table(
                ["metric", "beacons"],
                [
                    ["n", len(beacons)],
                    ["median", f"{percentile(beacons, 50):.2f}"],
                    ["p90", f"{percentile(beacons, 90):.2f}"],
                    ["max", f"{max(beacons):.2f}"],
                ],
            )
        )
        samples = reverse_hop_counts(net)
        (out / f"{tag}_reverse_hops.csv").write_text(
            report.csv_table(["ctp_hops", "reverse_hops"], sorted(samples))
        )

    # --- testbed comparison (Fig 7–10, Table III) ---------------------------
    if not args.skip_comparison:
        variants = ("tele", "re-tele", "rpl", "drip")
        results = {}
        runs = []
        for channel in (26, 19):
            for variant in variants:
                print(f"comparison: {variant} ch{channel}…", file=sys.stderr)
                result = run_comparison(
                    variant,
                    zigbee_channel=channel,
                    seed=args.seed,
                    n_controls=args.controls,
                    control_interval_s=args.interval,
                )
                results[(variant, channel)] = result
                runs.append(result)
        (out / "table3_fig9_summary.csv").write_text(
            report.csv_table(report.COMPARISON_HEADERS, report.comparison_rows(results))
        )
        for channel in (26, 19):
            flat = {v: results[(v, channel)] for v in variants}
            (out / f"fig7_pdr_ch{channel}.csv").write_text(
                report.csv_table(["protocol", "hop", "pdr"], report.pdr_by_hop_rows(flat))
            )
            (out / f"fig10_latency_ch{channel}.csv").write_text(
                report.csv_table(
                    ["protocol", "hop", "latency_s"], report.latency_by_hop_rows(flat)
                )
            )
        (out / "fig8_athx_ch26.csv").write_text(
            report.csv_table(
                ["protocol", "ctp_hops", "athx"],
                report.athx_rows({v: results[(v, 26)] for v in ("tele", "rpl")}),
            )
        )
        save_results(runs, out / "comparison_runs.json")
    print(f"wrote {len(list(out.iterdir()))} files to {out}")
    return 0


def _build_runner(args: argparse.Namespace):
    """The ParallelRunner shared by every ``repro run`` grid."""
    from repro.runner import ParallelRunner, ResultCache

    progress = None
    if not args.quiet:
        progress = lambda category, message, **data: print(
            f"[{category}] {message}", file=sys.stderr
        )
    cache = None if args.no_cache else ResultCache(args.cache_dir, progress=progress)
    journal_dir = args.journal_dir
    if journal_dir is None and args.resume:
        journal_dir = ".repro-journal"
    return ParallelRunner(
        jobs=args.jobs,
        cache=cache,
        timeout=args.timeout,
        progress=progress,
        journal_dir=journal_dir,
        resume=args.resume,
        watchdog=args.watchdog,
        handle_signals=True,
    )


def _finish_run(run_report) -> int:
    """Print one line per failed cell; exit code reflects failures."""
    for cell in run_report.failures():
        tag = " [quarantined]" if cell.quarantined else ""
        print(f"FAILED {cell.label}: {cell.attempts} attempt(s): {cell.error}{tag}")
    if run_report.interrupted:
        hint = ""
        if run_report.journal:
            journal_dir = os.path.dirname(run_report.journal)
            hint = f" — resume with --resume --journal-dir {journal_dir}"
        print(f"INTERRUPTED: {run_report.interrupted} cell(s) unfinished{hint}")
        return EXIT_INTERRUPTED
    return EXIT_OK if run_report.failed == 0 else EXIT_FAILED


def _cmd_run(args: argparse.Namespace) -> int:
    """Run an experiment grid through the parallel execution engine."""
    import json

    experiment = GRIDS[args.grid]
    runner = _build_runner(args)
    outcomes = runner.run(experiment.expand(args))
    headers, rows = experiment.render(args, outcomes)
    print()
    print(runner.last_report.summary_table())
    _write_csv(args.csv, headers, rows)
    if args.out:
        results = [outcome.result for outcome in outcomes if outcome.result is not None]
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"(results written to {args.out})")
    return _finish_run(runner.last_report)


def _cmd_quickstart(args: argparse.Namespace) -> int:
    import repro

    net = repro.build_network(topology=args.topology, seed=args.seed)
    net.converge(max_seconds=240)
    destination = args.destination
    if destination is None:
        candidates = [
            n
            for n in net.non_sink_nodes()
            if net.protocols[n].path_code is not None
            and net.stacks[n].routing.hop_count <= 6
        ]
        destination = max(candidates, key=lambda n: net.stacks[n].routing.hop_count)
    record = net.send_control(destination, payload={"demo": True})
    net.run(60)
    hops = net.stacks[destination].routing.hop_count
    print(
        f"node {destination} ({hops} hops): delivered={record.delivered} "
        f"latency={record.latency_s and round(record.latency_s, 2)}s "
        f"athx={record.athx}"
    )
    return 0 if record.delivered else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TeleAdjusting (ICDCS'15) reproduction: regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, topology_default="tight-grid"):
        """Attach the shared seed/csv/topology options."""
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--csv", type=str, default=None)
        p.add_argument(
            "--topology",
            choices=("tight-grid", "sparse-linear", "indoor-testbed"),
            default=topology_default,
        )

    def comparison_common(p):
        """Attach the shared comparison-run options."""
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--csv", type=str, default=None)
        p.add_argument("--controls", type=int, default=20)
        p.add_argument("--interval", type=float, default=60.0)

    p = sub.add_parser("fig6a", help="code length vs hop count")
    common(p)
    p.set_defaults(func=_cmd_code_lengths)

    p = sub.add_parser("fig6b", help="children per hop")
    common(p)
    p.set_defaults(func=_cmd_fig6b)

    p = sub.add_parser("fig6c", help="convergence rate")
    common(p)
    p.set_defaults(func=_cmd_fig6c)

    p = sub.add_parser("fig6d", help="reverse vs CTP hop count")
    common(p)
    p.set_defaults(func=_cmd_fig6d)

    p = sub.add_parser("table2", help="indoor testbed code lengths")
    common(p, topology_default="indoor-testbed")
    p.set_defaults(func=_cmd_code_lengths)

    p = sub.add_parser("fig7", help="PDR by hop per protocol")
    comparison_common(p)
    p.add_argument("--channel", type=int, choices=(26, 19), default=26)
    p.set_defaults(func=_cmd_fig7)

    p = sub.add_parser("fig8", help="ATHX vs CTP hops")
    comparison_common(p)
    p.add_argument("--channel", type=int, choices=(26, 19), default=26)
    p.set_defaults(func=_cmd_fig8)

    p = sub.add_parser("fig10", help="latency by hop per protocol")
    comparison_common(p)
    p.add_argument("--channel", type=int, choices=(26, 19), default=26)
    p.set_defaults(func=_cmd_fig10)

    p = sub.add_parser(
        "compare", help="full matrix: Table III + Figure 9 summary"
    )
    comparison_common(p)
    p.add_argument(
        "--channels", type=int, nargs="+", choices=(26, 19), default=[26, 19]
    )
    p.add_argument(
        "--variants",
        nargs="+",
        choices=tuple(variant_names()),
        default=["tele", "re-tele", "rpl", "drip"],
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "all", help="regenerate every paper experiment into CSV files"
    )
    p.add_argument("--out", type=str, default="results")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--controls", type=int, default=25)
    p.add_argument("--interval", type=float, default=60.0)
    p.add_argument(
        "--skip-comparison",
        action="store_true",
        help="only the fast construction experiments (Fig 6 / Table II)",
    )
    p.set_defaults(func=_cmd_all)

    p = sub.add_parser(
        "run",
        help="run an experiment grid in parallel with result caching",
        description=(
            "Execute a grid of comparison cells through repro.runner: "
            "cells fan out over --jobs worker processes and unchanged cells "
            "are answered from --cache-dir instead of re-simulated. The "
            "'chaos' grid sweeps fault intensity under a --scenario preset."
        ),
    )
    p.add_argument("grid", choices=sorted(GRIDS))
    p.add_argument(
        "--jobs", type=_job_count, default=1,
        help="worker processes (1 = serial, 0 = auto-detect cpu count)",
    )
    p.add_argument(
        "--seeds", type=int, nargs="+", default=[1], help="one cell per seed"
    )
    p.add_argument(
        "--channels", type=int, nargs="+", choices=(26, 19), default=None,
        help="override the grid's default ZigBee channels",
    )
    p.add_argument(
        "--controls", type=int, default=None,
        help="control packets per cell (default: 20; scale grid: 5)",
    )
    p.add_argument(
        "--interval", type=float, default=None,
        help="seconds between controls (default: 60; scale grid: 10)",
    )
    p.add_argument(
        "--converge", type=float, default=None,
        help="override the grid's convergence window (simulated seconds)",
    )
    p.add_argument(
        "--drain", type=float, default=None,
        help="override the grid's drain window (simulated seconds)",
    )
    p.add_argument(
        "--cache-dir", type=str, default=".repro-cache",
        help="content-addressed result cache directory",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="always re-simulate every cell"
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock timeout in seconds (parallel mode only)",
    )
    p.add_argument(
        "--journal-dir", type=str, default=None,
        help="write a resumable run journal under this directory",
    )
    p.add_argument(
        "--resume", action="store_true",
        help=(
            "resume this grid from its journal (implies --journal-dir "
            ".repro-journal when no directory is given): completed cells "
            "are served from the journal, the rest re-run"
        ),
    )
    p.add_argument(
        "--watchdog", type=float, default=None,
        help=(
            "heartbeat watchdog window in seconds (parallel mode only): "
            "kill and retry workers that stop beating or stop progressing"
        ),
    )
    p.add_argument("--csv", type=str, default=None)
    p.add_argument("--out", type=str, default=None, help="save full runs as JSON")
    p.add_argument("--quiet", action="store_true", help="no per-cell progress lines")
    p.add_argument(
        "--scenario", choices=CHAOS_SCENARIOS, default="crash-churn",
        help="chaos grid only: fault scenario preset",
    )
    p.add_argument(
        "--intensities", type=float, nargs="+", default=[0.25, 0.5, 1.0],
        help="chaos/soak grids: fault or churn intensities to sweep",
    )
    p.add_argument(
        "--variants", nargs="+",
        choices=tuple(variant_names()),
        default=["tele", "re-tele"],
        help="chaos/soak grids: protocol variants",
    )
    scale_group = p.add_argument_group(
        "scale", "city-scale grid: generated multi-thousand-node deployments "
        "on the spatial-index channel (see docs/performance.md)"
    )
    scale_group.add_argument(
        "--sizes", type=int, nargs="+", default=[2000],
        help="scale grid only: approximate node counts to sweep",
    )
    scale_group.add_argument(
        "--topos", nargs="+", default=["forest"],
        choices=("forest", "city-blocks", "clustered"),
        help="scale grid only: deployment generators to sweep",
    )
    scale_group.add_argument(
        "--dense", action="store_true",
        help="scale grid only: disable the spatial index (brute-force O(N²) "
        "channel build — same results, much slower at scale)",
    )
    lora_group = p.add_argument_group(
        "lora", "long-range grid: tele-vs-drip over a radio-profile-derived "
        "km-scale field at sub-kbps rates (see docs/api.md)"
    )
    lora_group.add_argument(
        "--radio-profile", type=str, default="lora",
        help="lora grid only: registered radio profile to run on",
    )
    lora_group.add_argument(
        "--lora-variants", nargs="+",
        choices=tuple(variant_names()),
        default=["tele", "drip"],
        help="lora grid only: protocol variants",
    )
    soak_group = p.add_argument_group(
        "soak", "endurance grid: multi-day sim-time soaks under mobility "
        "churn and battery depletion with streaming metrics (see docs/soak.md)"
    )
    soak_group.add_argument(
        "--duration", type=float, default=None,
        help="soak grid only: simulated seconds per cell (default: 86400)",
    )
    soak_group.add_argument(
        "--window", type=float, default=None,
        help="soak grid only: streaming-metrics window in simulated seconds "
        "(default: 600)",
    )
    soak_group.add_argument(
        "--battery-mah", type=float, default=None,
        help="soak grid only: mean per-node battery budget in mAh "
        "(0 disables depletion; default: 5)",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("quickstart", help="one remote-control round trip")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--topology",
        choices=("tight-grid", "sparse-linear", "indoor-testbed"),
        default="indoor-testbed",
    )
    p.add_argument("--destination", type=int, default=None)
    p.set_defaults(func=_cmd_quickstart)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
