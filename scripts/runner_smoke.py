"""Runner cache smoke: a cold grid must simulate, a warm one must not.

    PYTHONPATH=src python scripts/runner_smoke.py

Runs two tiny TeleAdjusting comparison cells on a two-worker spawn pool
into ``.repro-cache``, then the same grid again. Catches cache-key
regressions: a fingerprint that drifts between identical invocations would
re-simulate. Start from a fresh cache directory; a warm one makes the cold
run's "executed" count zero. The pool needs this file's ``__main__``
guard: spawn workers re-import the main module.
"""

from repro.experiments.sweep import run_comparison_multi

FAST = dict(n_controls=2, control_interval_s=4.0, converge_seconds=30.0, drain_seconds=10.0)


def main() -> None:
    cold = run_comparison_multi("tele", seeds=(1, 2), jobs=2, cache_dir=".repro-cache", **FAST)
    print(cold.telemetry.summary_table())
    assert cold.telemetry.executed == 2, cold.telemetry.counters()
    warm = run_comparison_multi("tele", seeds=(1, 2), jobs=2, cache_dir=".repro-cache", **FAST)
    print(warm.telemetry.summary_table())
    assert warm.telemetry.executed == 0, warm.telemetry.counters()
    assert warm.telemetry.cached == 2, warm.telemetry.counters()
    assert [r.pdr for r in warm.runs] == [r.pdr for r in cold.runs]


if __name__ == "__main__":
    main()
