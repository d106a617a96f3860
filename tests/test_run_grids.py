"""`python -m repro run` end to end: every grid, real simulations.

Each case runs one tiny grid in-process (``--jobs 1 --no-cache``) and
compares what a user sees against ``tests/golden/run_grids.json``:

- the journal's file name — the grid fingerprint over every cell
  fingerprint in order, so it pins each spec's kind and params byte for
  byte;
- the printed per-cell, figure, aggregate and soak-tail tables (the runner
  telemetry block after them is wall-clock and left out);
- the ``--csv`` file and the ``--out`` JSON.

The parity tests at the bottom hold each paper-figure grid to the
``repro.experiments.report`` helper that builds its rows: for one seed, the
grid's CSV rows are the helper's rows for the same cells run directly.

Wall-clock values are masked: the ``events/s`` column of the scale and soak
tables and CSVs, and ``wall_s``/``events_per_sec`` in their JSON.

A refactor of the runner, the experiment registry or the CLI must leave
every pin unchanged. Rewrite the pins only for an intended output change::

    PYTHONPATH=src python tests/test_run_grids.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path
from typing import Dict, List

import pytest

from repro import cli
from repro.experiments import report
from repro.experiments.codestats import (
    children_by_hop,
    code_construction_run,
    code_length_by_hop,
    convergence_beacons,
    reverse_hop_counts,
)
from repro.experiments.comparison import run_comparison
from repro.experiments.registry import COMPARISON_FIGURES

GOLDEN_FILE = Path(__file__).parent / "golden" / "run_grids.json"

SCHEDULE = [
    "--controls", "1", "--interval", "5", "--converge", "20", "--drain", "5",
]
GRID_ARGS: Dict[str, List[str]] = {
    # The construction grids take no schedule; their cells converge in ~0.5 s.
    "fig6a": ["--seeds", "1"],
    "fig6b": ["--seeds", "1"],
    "fig6c": ["--seeds", "1"],
    "fig6d": ["--seeds", "1"],
    "table2": ["--seeds", "1"],
    "fig7": ["--seeds", "1"],
    "fig8": ["--seeds", "1", "2"],
    "fig10": ["--seeds", "1"],
    "table3": ["--seeds", "1"],
    "compare": ["--seeds", "1"],
    "chaos": ["--seeds", "1"],
    "lora": ["--seeds", "1", "2"],
    "scale": ["--seeds", "1", "--sizes", "100"],
    "soak": ["--seeds", "1", "--duration", "120", "--window", "60"],
}
FIGURE_6_FIELDS = ("tight-grid", "sparse-linear")
WALL_CLOCK_JSON = re.compile(r'("(?:wall_s|events_per_sec)": )[-0-9.eE+]+')


def _mask_table_column(text: str, header: str) -> str:
    """Cut ``header`` (a table's last column) from every table showing it."""
    out = []
    column = None
    for line in text.split("\n"):
        if header in line.split():
            column = line.index(header)
        if not line.strip():
            column = None
        out.append(line[:column].rstrip() if column is not None else line)
    return "\n".join(out)


def _mask_csv_column(text: str, header: str) -> str:
    """Drop the last CSV column (its values carry thousands separators)."""
    lines = text.splitlines()
    if not lines or lines[0].split(",")[-1] != header:
        return text
    width = len(lines[0].split(",")) - 1
    return "\n".join(",".join(line.split(",")[:width]) for line in lines) + "\n"


def capture(grid: str, workdir: str) -> Dict[str, str]:
    """Run one grid through the CLI; return its masked, user-visible output."""
    journal_dir = os.path.join(workdir, "journal")
    csv_path = os.path.join(workdir, "cells.csv")
    out_path = os.path.join(workdir, "runs.json")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(
            [
                "run", grid, "--jobs", "1", "--no-cache", "--quiet",
                "--journal-dir", journal_dir,
                "--csv", csv_path, "--out", out_path,
                *SCHEDULE, *GRID_ARGS[grid],
            ]
        )
    assert rc == 0, stdout.getvalue()
    tables = stdout.getvalue().split("Runner telemetry (")[0]
    csv = Path(csv_path).read_text()
    out = WALL_CLOCK_JSON.sub(r"\1null", Path(out_path).read_text())
    if grid in ("scale", "soak"):
        tables = _mask_table_column(tables, "events/s")
        csv = _mask_csv_column(csv, "events/s")
    return {
        "journal": " ".join(sorted(os.listdir(journal_dir))),
        "tables": tables,
        "csv": csv,
        "out_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
    }


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_FILE.read_text())


def test_every_grid_is_pinned(pinned):
    assert sorted(pinned) == sorted(GRID_ARGS)


@pytest.mark.parametrize("grid", sorted(GRID_ARGS))
def test_run_grid_output_is_pinned(grid, pinned, tmp_path):
    got = capture(grid, str(tmp_path))
    want = pinned[grid]
    assert got["journal"] == want["journal"], "grid fingerprint changed"
    assert got["tables"] == want["tables"]
    assert got["csv"] == want["csv"]
    assert got["out_sha256"] == want["out_sha256"], "--out JSON changed"


# ------------------------------------------------------------------ parity

@pytest.fixture(scope="module")
def one_seed_csvs(tmp_path_factory) -> Dict[str, List[str]]:
    """Each figure grid's CSV body lines for seed 1, over one shared cache."""
    workdir = tmp_path_factory.mktemp("parity")
    csvs = {}
    for grid in ("fig6a", "fig6b", "fig6c", "fig6d", "table2", *COMPARISON_FIGURES):
        csv_path = workdir / f"{grid}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(
                [
                    "run", grid, "--seeds", "1", "--quiet", "--csv", str(csv_path),
                    "--cache-dir", str(workdir / "cache"), *SCHEDULE,
                ]
            )
        assert rc == 0
        csvs[grid] = csv_path.read_text().splitlines()[1:]
    return csvs


def _lines(rows) -> List[str]:
    return [",".join(str(cell) for cell in row) for row in rows]


def test_construction_grids_print_their_report_rows(one_seed_csvs):
    nets = {t: code_construction_run(t, seed=1) for t in FIGURE_6_FIELDS}
    indoor = code_construction_run("indoor-testbed", seed=1)
    assert one_seed_csvs["table2"] == _lines(
        ["indoor-testbed", *row] for row in report.code_length_rows(code_length_by_hop(indoor))
    )
    figures = {
        "fig6a": lambda net: report.code_length_rows(code_length_by_hop(net)),
        "fig6b": lambda net: report.children_rows(children_by_hop(net)),
        "fig6c": lambda net: report.convergence_rows(convergence_beacons(net)),
        "fig6d": lambda net: sorted(reverse_hop_counts(net)),
    }
    for grid, rows_of in figures.items():
        want = [[t, *row] for t, net in nets.items() for row in rows_of(net)]
        assert one_seed_csvs[grid] == _lines(want), grid


def test_comparison_grids_print_their_report_rows(one_seed_csvs):
    schedule = dict(n_controls=1, control_interval_s=5.0, converge_seconds=20.0, drain_seconds=5.0)
    runs = {
        (v, ch): run_comparison(v, zigbee_channel=ch, seed=1, **schedule)
        for v in ("tele", "re-tele", "rpl", "drip")
        for ch in (26, 19)
    }

    def on(channel, grid):
        return {v: runs[v, channel] for v in COMPARISON_FIGURES[grid].over}

    figures = {
        "fig7": report.pdr_by_hop_rows,
        "fig8": report.athx_rows,
        "fig10": report.latency_by_hop_rows,
    }
    for grid, rows_of in figures.items():
        assert one_seed_csvs[grid] == _lines([26, *row] for row in rows_of(on(26, grid))), grid
    for grid in ("table3", "compare"):
        want = [
            row
            for ch in (26, 19)
            for row in report.comparison_rows({(v, ch): r for v, r in on(ch, grid).items()})
        ]
        assert one_seed_csvs[grid] == _lines(want), grid


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    pins = {}
    for name in sorted(GRID_ARGS):
        with tempfile.TemporaryDirectory() as scratch:
            pins[name] = capture(name, scratch)
        print(f"{name}: {pins[name]['journal']}")
    GOLDEN_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
