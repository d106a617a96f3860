"""The `python -m repro run` grid subcommand.

The simulation itself is stubbed (monkeypatched ``run_comparison``); these
tests cover the CLI wiring: grid expansion, cache behaviour, journal/resume
flags, telemetry output, CSV/JSON export, and exit codes. ``jobs=1`` keeps
execution in-process so the stub is visible to the engine. The one
exception is the SIGTERM test at the bottom, which runs a real (compressed)
grid in a subprocess to pin the 0/1/3 exit-code contract end to end.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.experiments.comparison import ComparisonResult


@pytest.fixture
def stub_comparison(monkeypatch):
    calls = []

    def fake_run_comparison(variant, zigbee_channel=26, seed=0, **kwargs):
        calls.append((variant, zigbee_channel, seed))
        return ComparisonResult(
            variant=variant,
            zigbee_channel=zigbee_channel,
            seed=seed,
            n_controls=kwargs.get("n_controls", 2),
            pdr=0.875,
            pdr_by_hop={1: 1.0, 2: 0.75},
            latency_by_hop={1: 0.8},
            mean_latency=1.5,
            tx_per_control=4.25,
            duty_cycle=0.031,
            athx_samples=[(1, 1)],
        )

    monkeypatch.setattr(
        "repro.experiments.comparison.run_comparison", fake_run_comparison
    )
    return calls


def run_cli(tmp_path, *extra):
    return cli.main(
        [
            "run", "fig8", "--seeds", "1", "2", "--controls", "2",
            "--cache-dir", str(tmp_path / "cache"), "--quiet", *extra,
        ]
    )


class TestRunParser:
    def test_run_subcommand_parses(self):
        parser = cli.build_parser()
        args = parser.parse_args(
            ["run", "fig7", "--jobs", "4", "--cache-dir", ".repro-cache",
             "--seeds", "1", "2", "--timeout", "30"]
        )
        assert args.grid == "fig7"
        assert args.jobs == 4
        assert args.seeds == [1, 2]
        assert args.timeout == 30.0
        assert callable(args.func)

    def test_unknown_grid_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["run", "fig99"])

    def test_robustness_flags_parse(self):
        args = cli.build_parser().parse_args(
            ["run", "fig8", "--journal-dir", "J", "--resume",
             "--watchdog", "5", "--converge", "30", "--drain", "10"]
        )
        assert args.journal_dir == "J"
        assert args.resume is True
        assert args.watchdog == 5.0
        assert args.converge == 30.0
        assert args.drain == 10.0

    def test_robustness_flags_default_off(self):
        args = cli.build_parser().parse_args(["run", "fig8"])
        assert args.journal_dir is None
        assert args.resume is False
        assert args.watchdog is None
        assert args.converge is None and args.drain is None


class TestGridDefaults:
    """Without schedule flags each grid expands to its documented cells."""

    @staticmethod
    def expand(*argv):
        from repro.experiments.registry import GRIDS

        args = cli.build_parser().parse_args(["run", *argv])
        return GRIDS[args.grid].expand(args)

    @staticmethod
    def expected(grid):
        from repro.experiments.chaos import chaos_grid_specs
        from repro.experiments.lora import lora_grid_specs
        from repro.runner import comparison_spec, scale_spec, soak_spec

        # The CLI's own default for comparison and chaos grids: 20 controls
        # a minute apart, not the drivers' COMPARISON/CHAOS_DEFAULTS.
        cli_schedule = dict(n_controls=20, control_interval_s=60.0)
        if grid == "fig8":
            return [
                comparison_spec(v, zigbee_channel=26, seed=1, **cli_schedule)
                for v in ("tele", "rpl")
            ]
        if grid == "chaos":
            return chaos_grid_specs(
                ["tele", "re-tele"], [0.25, 0.5, 1.0], [1],
                scenario="crash-churn", **cli_schedule,
            )
        if grid == "lora":
            return lora_grid_specs(["tele", "drip"], [1], radio_profile="lora")
        if grid == "scale":
            return [scale_spec("forest", size=2000, seed=1, spatial_index=True)]
        return [
            soak_spec(v, seed=1, zigbee_channel=26, churn_intensity=i)
            for v in ("tele", "re-tele")
            for i in (0.25, 0.5, 1.0)
        ]

    @pytest.mark.parametrize("grid", ["fig8", "chaos", "lora", "scale", "soak"])
    def test_default_cells(self, grid):
        got = self.expand(grid)
        want = self.expected(grid)
        assert [s.label for s in got] == [s.label for s in want]
        assert [s.fingerprint for s in got] == [s.fingerprint for s in want]

    def test_zero_battery_disables_depletion(self):
        specs = self.expand("soak", "--battery-mah", "0")
        assert {s.params["schedule"]["battery_mah"] for s in specs} == {None}


class TestRunExecution:
    def test_grid_expands_variants_by_seeds(self, tmp_path, stub_comparison, capsys):
        rc = run_cli(tmp_path)
        assert rc == 0
        # fig8 grid: (tele, rpl) × channel 26 × seeds (1, 2).
        assert sorted(stub_comparison) == sorted(
            [("tele", 26, 1), ("tele", 26, 2), ("rpl", 26, 1), ("rpl", 26, 2)]
        )
        out = capsys.readouterr().out
        assert "4 cells: 4 executed, 0 cached" in out
        assert "seed-averaged (n=2)" in out

    def test_second_invocation_is_fully_cached(self, tmp_path, stub_comparison, capsys):
        run_cli(tmp_path)
        del stub_comparison[:]
        rc = run_cli(tmp_path)
        assert rc == 0
        assert stub_comparison == []  # nothing re-simulated
        assert "4 cells: 0 executed, 4 cached" in capsys.readouterr().out

    def test_no_cache_always_simulates(self, tmp_path, stub_comparison, capsys):
        run_cli(tmp_path)
        del stub_comparison[:]
        run_cli(tmp_path, "--no-cache")
        assert len(stub_comparison) == 4
        assert "4 executed, 0 cached" in capsys.readouterr().out

    def test_out_and_csv_written(self, tmp_path, stub_comparison, capsys):
        out_json = tmp_path / "runs.json"
        out_csv = tmp_path / "cells.csv"
        rc = run_cli(tmp_path, "--out", str(out_json), "--csv", str(out_csv))
        assert rc == 0
        saved = json.loads(out_json.read_text())
        assert len(saved) == 4
        assert {item["variant"] for item in saved} == {"tele", "rpl"}
        assert out_csv.read_text().startswith("variant,ch,seed,status")

    def test_failing_cells_reported_and_nonzero_exit(
        self, tmp_path, monkeypatch, capsys
    ):
        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.experiments.comparison.run_comparison", explode)
        rc = run_cli(tmp_path)
        assert rc == 1
        out = capsys.readouterr().out
        assert "4 failed" in out
        assert "boom" in out

    def test_resume_serves_cells_from_journal(
        self, tmp_path, stub_comparison, capsys
    ):
        journal = tmp_path / "journal"
        run_cli(tmp_path, "--journal-dir", str(journal))
        del stub_comparison[:]
        # --no-cache forces the resume path to answer from the journal, not
        # the result cache the first run also populated.
        rc = run_cli(
            tmp_path, "--journal-dir", str(journal), "--resume", "--no-cache"
        )
        assert rc == 0
        assert stub_comparison == []  # nothing re-simulated
        assert "4 resumed" in capsys.readouterr().out


class TestExitCodeContract:
    def test_sigterm_interrupts_resumably(self, tmp_path):
        # A real (compressed) grid in a subprocess: SIGTERM after the first
        # completed cell must exit 3 (resumable), and --resume must finish
        # the grid with exit 0. This is the CLI half of the crash-safety
        # acceptance; the engine half lives in test_runner_equivalence.
        # Two seeds give four cells, so some are still undispatched when the
        # signal lands (with two cells the drain finishes the one running
        # and the grid completes with exit 0).
        argv = [
            sys.executable, "-m", "repro", "run", "fig8",
            "--seeds", "1", "2", "--controls", "2", "--interval", "4",
            "--converge", "30", "--drain", "10",
            "--journal-dir", str(tmp_path / "journal"),
            "--cache-dir", str(tmp_path / "cache"), "--no-cache",
        ]
        env = dict(
            os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])
        )
        victim = subprocess.Popen(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        backstop = threading.Timer(300.0, victim.kill)
        backstop.start()
        saw_done = False
        try:
            for line in victim.stderr:
                if "[runner] done" in line:
                    saw_done = True
                    victim.send_signal(signal.SIGTERM)
                    break
            rc = victim.wait(timeout=120)
        finally:
            backstop.cancel()
            victim.stderr.close()
        assert saw_done, "grid produced no completed cell"
        assert rc == cli.EXIT_INTERRUPTED

        resumed = subprocess.run(
            argv + ["--resume"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
            timeout=300,
        )
        assert resumed.returncode == cli.EXIT_OK
        assert "resumed" in resumed.stdout
