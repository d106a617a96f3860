"""Command-line interface: regenerate any of the paper's tables/figures.

Examples::

    python -m repro run table2                   # indoor code lengths
    python -m repro run fig6a --seeds 1 2 3      # Figure 6(a), both fields
    python -m repro run fig7 --channels 19 --controls 20
    python -m repro run table3 --seeds 2
    python -m repro quickstart --destination 7
    python -m repro all --out results --seeds 1 2 3 4 5

``run <grid>`` runs one figure's cells through the result cache and
prints their status, then the figure; ``--csv PATH`` writes the figure's
rows. ``all`` runs every figure grid into a directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments import report
from repro.experiments.registry import CONSTRUCTION_FIGURES, GRIDS
from repro.faults import CHAOS_SCENARIOS
from repro.protocols import variant_names

#: Exit-code contract for grid commands (documented in docs/operations.md):
#: 0 = every cell produced a result; 1 = at least one cell failed for good;
#: 3 = the run was interrupted (SIGINT/SIGTERM) and is resumable with
#: ``--resume``.
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INTERRUPTED = 3


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


def _run_grid(runner, args: argparse.Namespace) -> int:
    """Run one grid's cells, print its tables, write ``--csv``/``--out``."""
    experiment = GRIDS[args.grid]
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


def _cmd_run(args: argparse.Namespace) -> int:
    """Run an experiment grid through the parallel execution engine."""
    return _run_grid(_build_runner(args), args)


def _cmd_all(args: argparse.Namespace) -> int:
    """Run every paper grid through one runner and one cache.

    Each grid writes ``<out>/<grid>.csv`` and ``<out>/<grid>.json``; the
    comparison grids run on both channels and share one cell matrix.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grids = list(CONSTRUCTION_FIGURES)
    if not args.skip_comparison:
        grids += ["fig7", "fig8", "fig10", "table3"]
    parser = build_parser()
    runner = None
    status = EXIT_OK
    for grid in grids:
        grid_args = parser.parse_args(
            [
                "run", grid, "--seeds", *map(str, args.seeds), "--channels", "26", "19",
                "--csv", str(out / f"{grid}.csv"), "--out", str(out / f"{grid}.json"),
            ]
        )
        runner = runner or _build_runner(grid_args)
        status = max(status, _run_grid(runner, grid_args))
        if status == EXIT_INTERRUPTED:
            break
    print(f"wrote {len(list(out.iterdir()))} files to {out}")
    return status


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

    p = sub.add_parser(
        "all", help="run every paper figure and table grid into CSV files"
    )
    p.add_argument("--out", type=str, default="results")
    p.add_argument("--seeds", type=int, nargs="+", default=[1], help="one cell per seed")
    p.add_argument(
        "--skip-comparison",
        action="store_true",
        help="only the fast construction grids (Fig 6 / Table II)",
    )
    p.set_defaults(func=_cmd_all)

    p = sub.add_parser(
        "run",
        help="run an experiment grid in parallel with result caching",
        description=(
            "Execute a grid of cells through repro.runner: cells fan out "
            "over --jobs worker processes and unchanged cells are answered "
            "from --cache-dir instead of re-simulated. Each paper figure "
            "and table is a grid that prints its figure; the 'chaos' grid "
            "sweeps fault intensity under a --scenario preset."
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
        help="control packets per cell (default: 25; chaos grid: 20; scale grid: 5)",
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
