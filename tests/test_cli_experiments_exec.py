"""Execution tests for the code-construction grids and the quickstart.

The comparison grids are pinned by ``test_run_grids.py`` and exercised by
the benchmarks; here the construction grids run for real through
``cli.main`` (a cell converges in about half a second), which covers the
shared cells, the figure tables and the CSV output on real data.
"""

import re

from repro import cli


def run(grid, cache_dir, *extra):
    return cli.main(
        ["run", grid, "--seeds", "1", "--quiet", "--cache-dir", str(cache_dir), *extra]
    )


def executed(out):
    """Cells simulated, summed over every grid summary line in ``out``."""
    return sum(int(n) for n in re.findall(r"\d+ cells: (\d+) executed", out))


class TestConstructionCommands:
    def test_table2_executes(self, capsys, tmp_path):
        rc = run("table2", tmp_path)
        out = capsys.readouterr().out
        assert rc == 0
        assert "Path-code length by hop — indoor-testbed" in out
        assert "avg_bits" in out

    def test_fig6b_executes(self, capsys, tmp_path):
        rc = run("fig6b", tmp_path)
        out = capsys.readouterr().out
        assert rc == 0
        assert "Children by hop — sparse-linear" in out
        assert "avg_children" in out

    def test_fig6c_executes(self, capsys, tmp_path):
        rc = run("fig6c", tmp_path)
        out = capsys.readouterr().out
        assert rc == 0
        assert "median" in out

    def test_fig6d_executes(self, capsys, tmp_path):
        rc = run("fig6d", tmp_path)
        out = capsys.readouterr().out
        assert rc == 0
        assert "avg ratio" in out

    def test_csv_written(self, tmp_path, capsys):
        csv_path = tmp_path / "t2.csv"
        rc = run("table2", tmp_path / "cache", "--csv", str(csv_path))
        capsys.readouterr()
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "topology,hop,n,avg_bits,min_bits,max_bits"
        assert len(lines) > 3
        assert all(line.startswith("indoor-testbed,") for line in lines[1:])

    def test_figure_6_grids_share_their_cells(self, tmp_path, capsys):
        runs = []
        for grid in ("fig6a", "fig6b", "fig6c", "fig6d"):
            assert run(grid, tmp_path) == 0
            runs.append(executed(capsys.readouterr().out))
        # tight-grid and sparse-linear, simulated once for all four figures.
        assert runs == [2, 0, 0, 0]


class TestAllCommand:
    def test_warm_rerun_executes_nothing_and_rewrites_the_same_csvs(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)  # the default cache directory lands here
        outputs = []
        for out in ("cold", "warm"):
            assert cli.main(["all", "--out", out, "--skip-comparison"]) == 0
            outputs.append(executed(capsys.readouterr().out))
        assert outputs == [3, 0]
        for name in sorted(p.name for p in (tmp_path / "cold").iterdir()):
            assert (tmp_path / "warm" / name).read_bytes() == (
                tmp_path / "cold" / name
            ).read_bytes(), name


class TestQuickstartCommand:
    def test_quickstart_delivers(self, capsys):
        rc = cli.main(["quickstart", "--topology", "indoor-testbed", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "delivered=True" in out
