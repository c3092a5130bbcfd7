"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import _load_series, build_parser, main
from repro.datasets import sine_with_anomaly
from repro.exceptions import ReproError


@pytest.fixture
def series_file(tmp_path):
    ds = sine_with_anomaly(length=1200, period=80, anomaly_start=600,
                           anomaly_length=80, anomaly_kind="bump", seed=3)
    path = tmp_path / "series.csv"
    np.savetxt(path, ds.series)
    return str(path)


@pytest.fixture
def two_column_file(tmp_path):
    data = np.column_stack([np.arange(100.0), np.sin(np.arange(100.0))])
    path = tmp_path / "two.csv"
    np.savetxt(path, data)
    return str(path)


class TestLoadSeries:
    def test_single_column(self, series_file):
        series = _load_series(series_file, 0)
        assert series.size == 1200

    def test_column_selection(self, two_column_file):
        col1 = _load_series(two_column_file, 1)
        np.testing.assert_allclose(col1, np.sin(np.arange(100.0)), atol=1e-6)

    def test_missing_file(self):
        with pytest.raises(ReproError):
            _load_series("/nonexistent/file.csv", 0)

    def test_bad_column(self, two_column_file):
        with pytest.raises(ReproError):
            _load_series(two_column_file, 5)


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in (["demo"], ["table1"], ["find", "x.csv"], ["density", "x.csv"]):
            args = parser.parse_args(cmd)
            assert callable(args.func)

    def test_sax_defaults(self):
        args = build_parser().parse_args(["find", "x.csv"])
        assert (args.window, args.paa, args.alphabet) == (100, 4, 4)

    def test_prune_flag_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["find", "x.csv", "--prune"])
        assert "--prune" in capsys.readouterr().err

    def test_batch_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["find", "x.csv", "--backend", "batch"])
        assert "invalid choice: 'batch'" in capsys.readouterr().err


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Anomalies:" in out

    def test_find_runs(self, series_file, capsys):
        code = main(["find", series_file, "-w", "40", "-p", "4", "-a", "4", "-k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rra" in out

    def test_density_outputs_one_value_per_point(self, series_file, capsys):
        assert main(["density", series_file, "-w", "40"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1200

    def test_error_path_returns_1(self, capsys):
        assert main(["find", "/nonexistent.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_table1_single_row(self, capsys):
        assert main(["table1", "--only", "ecg_qtdb_0606"]) == 0
        out = capsys.readouterr().out
        assert "ECG 0606" in out

    def test_motifs_command(self, series_file, capsys):
        assert main(["motifs", series_file, "-w", "40", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out and "R" in out

    def test_suggest_command(self, series_file, capsys):
        assert main(["suggest", series_file, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "dominant period" in out
        assert "score" in out
