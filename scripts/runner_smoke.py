"""Runner cache smoke: a cold grid must simulate, a warm one must not.

    PYTHONPATH=src python scripts/runner_smoke.py

Runs two tiny TeleAdjusting comparison cells at ``jobs=2`` (one spawned
process per cell) into ``.repro-cache``, then the same grid again. Then runs
``repro all --skip-comparison`` (the five code-construction grids) twice
into the same cache: the warm run must simulate nothing and rewrite every
CSV byte for byte. Catches cache-key regressions: a fingerprint that
drifts between identical invocations would re-simulate. Start from a
fresh cache directory; a warm one makes the cold runs' "executed" counts
zero. The cell processes need this file's ``__main__`` guard: a spawned
process re-imports the main module.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from repro import cli
from repro.experiments.sweep import run_comparison_multi

FAST = dict(n_controls=2, control_interval_s=4.0, converge_seconds=30.0, drain_seconds=10.0)


def run_all(out: Path) -> int:
    """``repro all --skip-comparison`` into ``out``; the cells it simulated."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["all", "--out", str(out), "--skip-comparison"]) == 0
    print(stdout.getvalue())
    return sum(int(n) for n in re.findall(r"\d+ cells: (\d+) executed", stdout.getvalue()))


def main() -> None:
    cold = run_comparison_multi("tele", seeds=(1, 2), jobs=2, cache_dir=".repro-cache", **FAST)
    print(cold.telemetry.summary_table())
    assert cold.telemetry.executed == 2, cold.telemetry.counters()
    warm = run_comparison_multi("tele", seeds=(1, 2), jobs=2, cache_dir=".repro-cache", **FAST)
    print(warm.telemetry.summary_table())
    assert warm.telemetry.executed == 0, warm.telemetry.counters()
    assert warm.telemetry.cached == 2, warm.telemetry.counters()
    assert [r.pdr for r in warm.runs] == [r.pdr for r in cold.runs]

    with tempfile.TemporaryDirectory() as scratch:
        cold_out, warm_out = Path(scratch, "cold"), Path(scratch, "warm")
        assert run_all(cold_out) == 3  # tight-grid, sparse-linear, indoor-testbed
        assert run_all(warm_out) == 0
        csvs = sorted(path.name for path in cold_out.glob("*.csv"))
        assert len(csvs) == 5, csvs
        for name in csvs:
            assert (warm_out / name).read_bytes() == (cold_out / name).read_bytes(), name


if __name__ == "__main__":
    main()
