"""Chaos grid smoke: crash churn must fire faults and the countermeasures.

    PYTHONPATH=src python scripts/chaos_smoke.py

Runs a crash-churn cell of the Re-Tele variant for seeds 1 and 2 on a
two-worker spawn pool. Every cell must complete, and backtracking and
Re-Tele must actually fire: a zero counter means the fault layer or a
recovery path silently stopped working. The pool needs this file's
``__main__`` guard: spawn workers re-import the main module.
"""

from repro.runner import ParallelRunner, chaos_spec


def main() -> None:
    specs = [
        chaos_spec("re-tele", scenario="crash-churn", intensity=2.0,
                   seed=seed, n_controls=8, control_interval_s=8.0,
                   converge_seconds=240.0, drain_seconds=80.0)
        for seed in (1, 2)
    ]
    runner = ParallelRunner(jobs=2)
    outcomes = runner.run(specs)
    print(runner.last_report.summary_table())
    assert runner.last_report.failed == 0, runner.last_report.counters()
    recs = [o.result["recovery"] for o in outcomes]
    backtracks = sum(r["backtracks"] for r in recs)
    re_tele = sum(r["re_tele_invocations"] for r in recs)
    fired = sum(r["faults_fired"] for r in recs)
    print(f"faults_fired={fired} backtracks={backtracks} re_tele={re_tele}")
    assert fired > 0, "no fault ever fired"
    assert backtracks > 0, "backtracking never invoked under churn"
    assert re_tele > 0, "Re-Tele never invoked under churn"


if __name__ == "__main__":
    main()
