"""Run one benchmark workload and print its metrics as a final JSON line.

    python3 perfbench/run.py --workload testbed-ch19 --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end metrics
(``run_s``, ``setup_s``, ``peak_rss_mb``). ``--trace 1`` runs the first cell
untraced and then traced, checks that both give the same simulated-output
digest, prints the per-layer table and reports the per-layer metrics.
Earlier lines carry the noise diagnostics and exact work counters; the last
line is ``{"correct", "attempted", "failed", "metrics"}``. Run from the
repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent

#: Per-layer rows of the traced table: (metric prefix, tracer layers).
REPORTED_LAYERS = (
    ("sim", ("sim",)),
    ("channel", ("channel",)),
    ("radio", ("radio", "noise")),
    ("lpl", ("lpl",)),
    ("net", ("net",)),
    ("allocation", ("allocation",)),
    ("forwarding", ("forwarding",)),
    ("endurance", ("endurance",)),
    ("interference", ("interference",)),
    ("other", ("topology", "other")),
)

_CHANNEL = "repro.radio.channel."
_RADIO = "repro.radio.radio.Radio."
_LINKEST = "repro.net.linkest.LinkEstimator."


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat whole passes while another fits in this budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _release(clock: Any) -> None:
    clock.networks.clear()
    gc.collect()


def _run_pass(workload: Any, seed: int, clock: Any) -> Tuple[List[Any], List[str]]:
    results, problems = [], []
    for cell in workload.cells(seed):
        result = cell.run(clock)
        _release(clock)
        results.append(result)
        problems.extend(result.problems)
    return results, problems


def _sum_counters(results: List[Any]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for result in results:
        for key, value in result.counters.items():
            total[key] = total.get(key, 0) + value
    return total


def _finish(correct: bool, attempted: int, failed: int, metrics: Dict[str, Any]) -> int:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


# ----------------------------------------------------------------- untraced
def run_untraced(name: str, seed: int, seconds: float) -> int:
    from calibrate import Calibrator
    from clock import SlicedClock, peak_mb
    from workloads import WORKLOADS, combined_digest

    workload = WORKLOADS[name]
    peak_before = peak_mb()
    cal = Calibrator()
    calibrator_mb = peak_mb() - peak_before
    cal.warm_up()
    cal.samples.clear()
    gc.collect()
    passes: List[Dict[str, Any]] = []
    problems: List[str] = []
    attempted = failed = 0
    started = time.perf_counter()
    while not passes or time.perf_counter() - started + passes[-1]["pass_wall_s"] <= seconds:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with SlicedClock(cal) as clock:
            results, pass_problems = _run_pass(workload, seed, clock)
        attempted += len(results)
        failed += sum(1 for r in results if r.problems)
        problems.extend(pass_problems)
        counters = _sum_counters(results)
        passes.append({
            "run_ref_s": clock.run_ref_s(),
            "run_s": clock.run_ref_s() * workload.nominal_events / counters["sim.events"],
            "run_wall_s": clock.run_wall_s(),
            "pass_wall_s": time.perf_counter() - wall0,
            "pass_cpu_s": time.process_time() - cpu0,
            "slices": clock.slices,
            "builds": clock.builds,
            "digest": combined_digest([r.digest for r in results]),
            "cell_digests": [r.digest for r in results],
            "counters": counters,
        })
    # Set-up repeats: the first cell's network, built again and dropped.
    with SlicedClock(cal) as clock:
        first = workload.cells(seed)[0]
        for _ in range(workload.setup_repeats):
            first.build(clock)
            _release(clock)
    measured_wall = time.perf_counter() - started
    builds = [b for p in passes for b in p["builds"]] + clock.builds
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append(f"passes disagree on the output digest: {sorted(digests)}")
        failed += 1

    run_s = statistics.median(p["run_s"] for p in passes)
    setup_s = statistics.median(b.ref for b in builds)
    peak_rss_mb = peak_mb() - calibrator_mb
    slices = [s for p in passes for s in p["slices"]]
    cal_q = statistics.quantiles(cal.samples, n=4)
    diagnostics = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "digest": passes[0]["digest"],
        "cell_digests": passes[0]["cell_digests"],
        "run_ref_s": statistics.median(p["run_ref_s"] for p in passes),
        "run_wall_s": statistics.median(p["run_wall_s"] for p in passes),
        "pass_wall_s": statistics.median(p["pass_wall_s"] for p in passes),
        "pass_cpu_s": statistics.median(p["pass_cpu_s"] for p in passes),
        "slices": len(slices),
        "calibration_ms": [round(q * 1e3, 5) for q in cal_q],
        "calibration_share": sum(cal.samples) / measured_wall,
        "setup_builds": len(builds),
        "setup_wall_s": statistics.median(b.wall for b in builds),
        "counters": passes[0]["counters"],
        "problems": problems,
    }
    print(f"perfbench {name} seed {seed}: run_s {run_s:.4f} (raw {diagnostics['run_wall_s']:.3f} s "
          f"wall, {diagnostics['pass_cpu_s']:.3f} s cpu per pass), setup_s {setup_s:.5f}, "
          f"peak_rss_mb {peak_rss_mb:.2f}, {len(slices)} slices, calibration median "
          f"{cal_q[1] * 1e3:.4f} ms ({diagnostics['calibration_share']:.1%} of wall), "
          f"digest {diagnostics['digest'][:16]}")
    for problem in problems:
        print(f"perfbench CHECK FAILED: {problem}")
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    metrics = {
        "run_s": _metric(run_s, "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    return _finish(not problems, attempted, failed, metrics)


# ------------------------------------------------------------------- traced
def run_traced(name: str, seed: int) -> int:
    from calibrate import Calibrator
    from clock import SlicedClock
    from layers import LAYERS, LayerTracer
    from workloads import WORKLOADS

    cell = WORKLOADS[name].cells(seed)[0]
    cal = Calibrator()
    cal.warm_up()
    gc.collect()
    with SlicedClock(cal) as plain:
        untraced = cell.run(plain)
    _release(plain)
    tracer = LayerTracer()
    with tracer, SlicedClock(cal, on_run=tracer.on_run, on_setup=tracer.on_setup) as clock:
        traced = cell.run(clock)
    _release(clock)

    problems = list(traced.problems)
    if traced.digest != untraced.digest:
        problems.append(f"traced digest {traced.digest} != untraced {untraced.digest}")
    run = tracer.phases["run"]
    setup = tracer.phases["setup"]
    total_wall = clock.run_wall_s()
    to_ref = clock.run_ref_s() / total_wall
    index = {layer: i for i, layer in enumerate(LAYERS)}
    kernel_self = total_wall - run.top
    layer_self = {layer: run.self_[i] for layer, i in index.items()}
    layer_self["sim"] += kernel_self
    covered = sum(layer_self.values())
    if kernel_self < 0 or abs(covered - total_wall) > 0.05 * total_wall:
        problems.append(f"layer self times {covered:.3f} s do not add up to {total_wall:.3f} s")

    counters = traced.counters
    calls = tracer.calls_of
    tx = calls(_CHANNEL + "Channel.start_transmission")
    rx = calls(_RADIO + "deliver")
    locked = calls(_CHANNEL + "_PendingReception.__init__")
    writes = sum(calls(_CHANNEL + "Channel." + m)
                 for m in ("move_node", "set_link_fault", "update_link_gains"))
    samples = calls("repro.radio.noise.CPMNoiseModel.sample") + calls(
        "repro.radio.noise.ConstantNoise.sample")
    evals = calls("repro.net.ctp.CtpRouting._evaluate_route")
    etx_reads = calls(_LINKEST + "link_etx")
    linkest_writes = sum(calls(_LINKEST + m)
                         for m in ("beacon_received", "data_sent", "forget", "reset"))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def self_s(prefix: str) -> float:
        layers = dict(REPORTED_LAYERS)[prefix]
        return sum(layer_self[layer] for layer in layers) * to_ref

    setup_wall = sum(b.wall for b in clock.builds)
    setup_to_ref = sum(b.ref for b in clock.builds) / setup_wall if setup_wall else 0.0

    def setup_s(*layers: str) -> float:
        return sum(setup.self_[index[layer]] for layer in layers) * setup_to_ref

    m: Dict[str, Tuple[float, str]] = {
        "sim.events": (counters["sim.events"], "count"),
        "sim.self_s": (self_s("sim"), "s"),
        "sim.ns_per_event": (ratio(self_s("sim"), counters["sim.events"]) * 1e9, "ns"),
        "channel.tx": (counters["channel.tx"], "count"),
        "channel.rx_per_tx": (ratio(rx, tx), "ratio"),
        "channel.rx_ok_ratio": (ratio(rx, locked), "ratio"),
        "channel.writes_per_tx": (ratio(writes, tx), "ratio"),
        "channel.self_s": (self_s("channel"), "s"),
        "channel.us_per_tx": (ratio(self_s("channel"), tx) * 1e6, "us"),
        "channel.us_per_rx": (ratio(self_s("channel"), rx) * 1e6, "us"),
        "radio.cca": (calls(_RADIO + "cca_clear"), "count"),
        "noise.samples": (samples, "count"),
        "radio.self_s": (self_s("radio"), "s"),
        "noise.ns_per_sample": (ratio(layer_self["noise"] * to_ref, samples) * 1e9, "ns"),
        "lpl.trains": (counters["lpl.trains"], "count"),
        "lpl.copies_per_train": (ratio(counters["lpl.copies"], counters["lpl.trains"]), "ratio"),
        "lpl.acks": (counters["lpl.acks"], "count"),
        "lpl.self_s": (self_s("lpl"), "s"),
        "lpl.us_per_copy": (ratio(self_s("lpl"), counters["lpl.copies"]) * 1e6, "us"),
        "ctp.beacons": (counters["ctp.beacons"], "count"),
        "ctp.route_evals": (evals, "count"),
        "ctp.etx_reads_per_eval": (ratio(etx_reads, evals), "ratio"),
        "ctp.linkest_writes_per_eval": (ratio(linkest_writes, evals), "ratio"),
        "ctp.parent_switch_ratio": (ratio(tracer.route_changes, evals), "ratio"),
        "net.self_s": (self_s("net"), "s"),
        "ctp.us_per_eval": (ratio(self_s("net"), evals) * 1e6, "us"),
        "allocation.code_changes": (counters["allocation.code_changes"], "count"),
        "allocation.reclaimed": (counters["allocation.reclaimed"], "count"),
        "allocation.self_s": (self_s("allocation"), "s"),
        "forwarding.forwarded": (counters["forwarding.forwarded"], "count"),
        "forwarding.backtracks": (counters["forwarding.backtracks"], "count"),
        "forwarding.re_tele": (counters["forwarding.re_tele"], "count"),
        "forwarding.self_s": (self_s("forwarding"), "s"),
        "mobility.moves": (counters["mobility.moves"], "count"),
        "battery.deaths": (counters["battery.deaths"], "count"),
        "streaming.windows": (counters["streaming.windows"], "count"),
        "endurance.self_s": (self_s("endurance"), "s"),
        "interference.self_s": (self_s("interference"), "s"),
        "other.self_s": (self_s("other"), "s"),
        "setup.deployment_s": (setup_s("topology"), "s"),
        "setup.channel_s": (setup_s("channel"), "s"),
        "setup.stacks_s": (setup_s("radio", "noise", "lpl", "net"), "s"),
        "setup.protocol_s": (setup_s("allocation", "forwarding"), "s"),
        # The untraced build is the process's first, so its growth is cold.
        "setup.rss_mb": (plain.builds[0].rss_mb, "MB"),
        "trace.overhead": (ratio(clock.run_ref_s(), plain.run_ref_s()), "ratio"),
    }

    print(f"perfbench {name} traced: {cell.label}, {total_wall:.3f} s host in Simulator.run "
          f"({clock.run_ref_s():.3f} ref s), trace.overhead {m['trace.overhead'][0]:.2f}, "
          f"digest {traced.digest[:16]} (untraced {untraced.digest[:16]})")
    print(f"{'layer':<13}{'spans':>10}{'incl_s':>10}{'self_s':>10}{'share':>8}")
    for layer in LAYERS:
        i = index[layer]
        share = layer_self[layer] / total_wall if total_wall else 0.0
        print(f"{layer:<13}{run.count[i]:>10}{run.incl[i] * to_ref:>10.3f}"
              f"{layer_self[layer] * to_ref:>10.3f}{share:>8.1%}")
    print(f"{'total':<13}{'':>10}{'':>10}{covered * to_ref:>10.3f}{covered / total_wall:>8.1%}"
          f"  (kernel self {kernel_self * to_ref:.3f} s included in sim)")
    for problem in problems:
        print(f"perfbench CHECK FAILED: {problem}")
    metrics = {key: _metric(value, unit) for key, (value, unit) in m.items()}
    return _finish(not problems, 2, 1 if problems else 0, metrics)


def main(argv: List[str]) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    try:
        import repro  # noqa: F401  (the program under test)
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.trace:
        return run_traced(args.workload, args.seed)
    return run_untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
