"""Seed-averaged headline comparison (the paper averages ≥5 runs).

Kept to two seeds and one channel so the bench suite stays tractable; the
full methodology is ``run_comparison_multi(seeds=range(1, 6))``.
"""

from repro.experiments.comparison import FIGURE_SCHEDULE
from repro.experiments.sweep import run_comparison_multi

from .conftest import print_rows


def test_multiseed_headline(benchmark):
    def run():
        return {
            variant: run_comparison_multi(
                variant,
                zigbee_channel=26,
                seeds=(1, 2),
                **FIGURE_SCHEDULE,
            )
            for variant in ("tele", "rpl")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (
            variant,
            f"pdr={aggregate.pdr.summary()}",
            f"tx={aggregate.tx_per_control.summary()}",
            f"duty={aggregate.duty_cycle.summary()}",
        )
        for variant, aggregate in results.items()
    ]
    print_rows("Seed-averaged comparison (channel 26, seeds 1-2)", rows)
    tele, rpl = results["tele"], results["rpl"]
    # The headline holds on seed-averaged means, not just single runs:
    assert tele.pdr.mean >= rpl.pdr.mean - 0.02
    assert tele.duty_cycle.mean <= rpl.duty_cycle.mean + 0.003
    assert tele.tx_per_control.mean < 12
