"""Steadiness summary: run one workload on several seeds, summarise spread.

    python3 perfbench/steady.py --workload city-1k --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per seed, one process at a time, and prints
for each end-to-end metric its median, quartiles and quartile spread as a
share of the median, with the raw wall-clock spread beside the calibrated
``run_s`` spread (and ``run_ref_s``, calibrated but not rescaled to the
workload's nominal event count). It also prints Spearman's rank correlation between
calibrated ``run_s`` and the run's calibration median: a value near zero
means calibration neither under- nor over-corrects for host speed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def spearman(xs: List[float], ys: List[float]) -> float:
    """Spearman's rank correlation (no tie correction)."""
    def ranks(values: List[float]) -> List[int]:
        order = sorted(range(len(values)), key=values.__getitem__)
        out = [0] * len(values)
        for rank, i in enumerate(order):
            out[i] = rank
        return out

    n = len(xs)
    d2 = sum((a - b) ** 2 for a, b in zip(ranks(xs), ranks(ys)))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, capture_output=True, text=True, check=False,
                               cwd=HERE.parent, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed} failed ({completed.returncode}):\n"
                         f"{completed.stdout}{completed.stderr}")
    diagnostics = next(json.loads(line)["diagnostics"] for line in lines
                       if line.startswith('{"diagnostics"'))
    return {"result": json.loads(lines[-1]), "diagnostics": diagnostics}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")

    runs = []
    for seed in args.seeds:
        run = run_once(args.workload, seed, args.seconds)
        metrics = run["result"]["metrics"]
        diag = run["diagnostics"]
        print(f"seed {seed:>4}: " + "  ".join(
            f"{name} {m['value']:.4f}" for name, m in metrics.items())
            + f"  run_ref_s {diag['run_ref_s']:.3f}  raw_wall_s {diag['run_wall_s']:.3f}"
            + f"  events {diag['counters']['sim.events']}"
            + f"  cal_ms {diag['calibration_ms'][1]:.4f}", flush=True)
        runs.append(run)

    series = {name: [r["result"]["metrics"][name]["value"] for r in runs]
              for name in runs[0]["result"]["metrics"]}
    series["run_ref_s"] = [r["diagnostics"]["run_ref_s"] for r in runs]
    series["raw_wall_s"] = [r["diagnostics"]["run_wall_s"] for r in runs]
    series["raw_setup_wall_s"] = [r["diagnostics"]["setup_wall_s"] for r in runs]
    calibration = [r["diagnostics"]["calibration_ms"][1] for r in runs]
    summary = {name: spread(values) for name, values in series.items()}
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/median':>12}")
    for name, s in summary.items():
        print(f"{name:<18}{s['median']:>12.4f}{s['q1']:>12.4f}{s['q3']:>12.4f}"
              f"{s['iqr_share']:>12.2%}")
    rho = spearman(series["run_s"], calibration)
    print(f"spearman(run_s, calibration median) = {rho:+.2f} over {len(runs)} runs")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "summary": summary,
                      "spearman_run_s_calibration": rho}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
