"""Shared fixtures for the per-figure/table benchmarks.

The benchmarks read the cells ``python -m repro run <grid>`` runs: the same
spec builders, the paper-figure schedule, and one session
:class:`~repro.runner.ParallelRunner` over a result cache. The
testbed-comparison figures (7–10) and Table III slice the *same* cells, and
the Figure 6 benchmarks share theirs, so each cell simulates once per
session. The cache lives in a session temp directory: every session starts
cold, so a stale entry never hides a change. Benchmarks print the
paper-style rows so the regenerated table/figure data is visible in the
benchmark log.
"""

from __future__ import annotations

from typing import Any, Dict

import pytest

from repro.experiments.comparison import FIGURE_SCHEDULE, ComparisonResult
from repro.metrics.io import comparison_from_dict
from repro.runner import (
    ParallelRunner,
    ResultCache,
    TaskSpec,
    comparison_spec,
    construction_spec,
)

SEED = 1


def comparison_cell(variant: str, channel: int, seed: int = SEED) -> TaskSpec:
    """One Figure 7–10 / Table III cell, as ``repro run`` builds it."""
    return comparison_spec(variant, zigbee_channel=channel, seed=seed, **FIGURE_SCHEDULE)


@pytest.fixture(scope="session")
def runner(tmp_path_factory) -> ParallelRunner:
    return ParallelRunner(jobs=1, cache=ResultCache(tmp_path_factory.mktemp("repro-cache")))


def _result(runner: ParallelRunner, spec: TaskSpec) -> Dict[str, Any]:
    (outcome,) = runner.run([spec])
    assert outcome.result is not None, outcome.error
    return outcome.result


@pytest.fixture(scope="session")
def get_comparison(runner):
    def comparison(variant: str, channel: int, seed: int = SEED) -> ComparisonResult:
        return comparison_from_dict(_result(runner, comparison_cell(variant, channel, seed)))

    return comparison


@pytest.fixture(scope="session")
def get_construction(runner):
    """A construction cell's JSON: the Figure 6 / Table II statistics."""

    def construction(topology: str, seed: int = SEED) -> Dict[str, Any]:
        return _result(runner, construction_spec(topology, seed))

    return construction


def print_rows(title: str, rows) -> None:
    print(f"\n=== {title} ===")
    for row in rows:
        print("   ", row)
