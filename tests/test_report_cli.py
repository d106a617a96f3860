"""Tests for the report renderers and the CLI argument surface."""

import dataclasses

import pytest

from repro.cli import build_parser
from repro.experiments import report
from repro.experiments.comparison import ComparisonResult


def fake_result(variant="tele", channel=26, pdr=0.95):
    return ComparisonResult(
        variant=variant,
        zigbee_channel=channel,
        seed=1,
        n_controls=10,
        pdr=pdr,
        pdr_by_hop={1: 1.0, 2: 0.9},
        latency_by_hop={1: 0.3, 2: 0.6},
        mean_latency=0.45,
        tx_per_control=4.4,
        duty_cycle=0.031,
        athx_samples=[(1, 1), (2, 2), (2, 1)],
    )


class TestAsciiTable:
    def test_renders_headers_and_rows(self):
        text = report.ascii_table(["a", "bb"], [[1, 2], [33, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "33" in text

    def test_column_widths_align(self):
        text = report.ascii_table(["x"], [["longvalue"], ["s"]])
        lines = text.splitlines()
        assert len(lines[1]) == len("longvalue")  # separator matches widest

    def test_empty_rows(self):
        text = report.ascii_table(["h"], [])
        assert "h" in text


class TestCsv:
    def test_csv_roundtrip(self):
        text = report.csv_table(["a", "b"], [[1, 2], [3, 4]])
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2"
        assert lines[2] == "3,4"


class TestRowBuilders:
    def test_comparison_rows(self):
        # A cell that delivered nothing measured zero transmissions and zero
        # duty cycle: zeros print as numbers, only the missing latency is n/a.
        silent = dataclasses.replace(
            fake_result("drip", 19, 0.0),
            tx_per_control=0.0,
            duty_cycle=0.0,
            mean_latency=None,
        )
        results = {
            ("tele", 26): fake_result(),
            ("rpl", 19): fake_result("rpl", 19, 0.9),
            ("drip", 19): silent,
        }
        rows = report.comparison_rows(results)
        assert len(rows) == 3
        assert all(len(row) == len(report.COMPARISON_HEADERS) for row in rows)
        assert rows[0] == ["drip", 19, "0.000", "0.00", "0.00", "n/a"]
        assert rows[2] == ["tele", 26, "0.950", "4.40", "3.10", "0.45"]

    def test_pdr_by_hop_rows(self):
        rows = report.pdr_by_hop_rows({"tele": fake_result()})
        assert rows == [["tele", 1, "1.000"], ["tele", 2, "0.900"]]

    def test_latency_by_hop_rows(self):
        rows = report.latency_by_hop_rows({"tele": fake_result()})
        assert rows == [["tele", 1, "0.300"], ["tele", 2, "0.600"]]

    def test_athx_rows(self):
        rows = report.athx_rows({"tele": fake_result()})
        assert ["tele", 2, 2] in rows
        assert len(rows) == 3

    def test_code_length_rows_skip_unrouted(self):
        rows = report.code_length_rows({1: [5, 5], 65535: [1]})
        assert len(rows) == 1
        assert rows[0][0] == 1
        assert rows[0][2] == "5.00"


class TestCliParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        for command in ("fig6a", "fig6b", "fig6c", "fig6d", "table2"):
            args = parser.parse_args([command, "--seed", "3"])
            assert args.seed == 3
            assert callable(args.func)
        for command in ("fig7", "fig8", "fig10"):
            args = parser.parse_args([command, "--channel", "19", "--controls", "5"])
            assert args.channel == 19
            assert args.controls == 5
        args = parser.parse_args(["compare", "--channels", "26"])
        assert args.channels == [26]
        args = parser.parse_args(["quickstart", "--destination", "4"])
        assert args.destination == 4

    def test_missing_command_errors(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_invalid_channel_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig7", "--channel", "11"])

    def test_csv_output(self, tmp_path, monkeypatch):
        # Drive the small table2 path end to end with a stubbed construction.
        from repro import cli

        class FakeNet:
            pass

        def fake_run(topology, seed):
            return FakeNet()

        monkeypatch.setattr(cli, "code_construction_run", fake_run)
        monkeypatch.setattr(
            cli, "code_length_by_hop", lambda net: {1: [5, 5, 6], 2: [8]}
        )
        csv_path = tmp_path / "out.csv"
        rc = cli.main(["table2", "--csv", str(csv_path)])
        assert rc == 0
        content = csv_path.read_text()
        assert content.splitlines()[0] == ",".join(report.CODE_LENGTH_HEADERS)
        assert "5.33" in content


class TestAllCommand:
    def test_all_parses(self):
        parser = build_parser()
        args = parser.parse_args(["all", "--out", "r", "--skip-comparison"])
        assert args.out == "r"
        assert args.skip_comparison

    def test_all_fast_path_writes_csvs(self, tmp_path, monkeypatch):
        from repro import cli

        class FakeNet:
            pass

        monkeypatch.setattr(cli, "code_construction_run", lambda topology, seed: FakeNet())
        monkeypatch.setattr(cli, "code_length_by_hop", lambda net: {1: [5], 2: [8]})
        monkeypatch.setattr(cli, "convergence_beacons", lambda net: [4.0, 9.0])
        monkeypatch.setattr(cli, "reverse_hop_counts", lambda net: [(1, 1), (2, 2)])
        import repro.experiments.codestats as codestats

        monkeypatch.setattr(codestats, "children_by_hop", lambda net: {0: [2], 1: [1]})
        rc = cli.main(["all", "--out", str(tmp_path / "res"), "--skip-comparison"])
        assert rc == 0
        files = {p.name for p in (tmp_path / "res").iterdir()}
        assert "table2_indoor.csv" in files
        assert "fig6a_tight_convergence.csv" in files
        assert len(files) == 12
