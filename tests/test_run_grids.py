"""`python -m repro run` end to end: every grid, real simulations.

Each case runs one tiny grid in-process (``--jobs 1 --no-cache``) and
compares what a user sees against ``tests/golden/run_grids.json``:

- the journal's file name — the grid fingerprint over every cell
  fingerprint in order plus the retry policy, so it pins each spec's kind,
  params and the policy byte for byte;
- the printed per-cell, aggregate and soak-tail tables (the runner
  telemetry block after them is wall-clock and left out);
- the ``--csv`` file and the ``--out`` JSON.

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

GOLDEN_FILE = Path(__file__).parent / "golden" / "run_grids.json"

SCHEDULE = [
    "--controls", "1", "--interval", "5", "--converge", "20", "--drain", "5",
]
GRID_ARGS: Dict[str, List[str]] = {
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


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    pins = {}
    for name in sorted(GRID_ARGS):
        with tempfile.TemporaryDirectory() as scratch:
            pins[name] = capture(name, scratch)
        print(f"{name}: {pins[name]['journal']}")
    GOLDEN_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
