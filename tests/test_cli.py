"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "order_id,zip,city\n"
        "o1,10115,Berlin\n"
        "o2,10115,Berlin\n"
        "o3,20095,Hamburg\n"
        "o4,20095,Hamburg\n"
    )
    return path


class TestDiscover:
    def test_exact(self, sample_csv, capsys):
        assert main(["discover", str(sample_csv)]) == 0
        out = capsys.readouterr().out
        assert "zip -> city" in out
        assert "key:" in out

    def test_stats_flag(self, sample_csv, capsys):
        assert main(["discover", str(sample_csv), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "levels:" in out
        assert "sets s=" in out

    def test_epsilon(self, sample_csv, capsys):
        assert main(["discover", str(sample_csv), "--epsilon", "0.5"]) == 0
        assert "approximate" in capsys.readouterr().out

    def test_disk_store(self, sample_csv, capsys):
        assert main(["discover", str(sample_csv), "--store", "disk"]) == 0
        assert "zip -> city" in capsys.readouterr().out

    def test_max_lhs(self, sample_csv, capsys):
        assert main(["discover", str(sample_csv), "--max-lhs", "1"]) == 0

    def test_no_header(self, tmp_path, capsys):
        path = tmp_path / "raw.csv"
        path.write_text("1,x\n2,x\n")
        assert main(["discover", str(path), "--no-header"]) == 0
        assert "col" in capsys.readouterr().out

    def test_bad_epsilon_is_error_exit(self, sample_csv, capsys):
        assert main(["discover", str(sample_csv), "--epsilon", "7"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_partition_cache_flag_is_refused(self, sample_csv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["discover", str(sample_csv), "--partition-cache"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --partition-cache" in capsys.readouterr().err


class TestProfile:
    def test_basic(self, sample_csv, capsys):
        assert main(["profile", str(sample_csv)]) == 0
        out = capsys.readouterr().out
        assert "columns:" in out
        assert "minimal keys" in out

    def test_with_epsilon(self, sample_csv, capsys):
        assert main(["profile", str(sample_csv), "--epsilon", "0.3"]) == 0
        assert "approximate dependencies" in capsys.readouterr().out


class TestDataset:
    def test_materialize_wisconsin(self, tmp_path, capsys):
        out_path = tmp_path / "wbc.csv"
        assert main(["dataset", "wisconsin", str(out_path)]) == 0
        assert out_path.exists()
        assert "699 rows" in capsys.readouterr().out

    def test_copies(self, tmp_path, capsys):
        out_path = tmp_path / "wbc2.csv"
        assert main(["dataset", "wisconsin", str(out_path), "--copies", "2"]) == 0
        assert "1398 rows" in capsys.readouterr().out


class TestBench:
    def test_ablation_engine(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert main(["bench", "ablation-engine"]) == 0
        assert "partition engine" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_serve_partition_cache_budget_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--partition-cache-mb", "8"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --partition-cache-mb 8" in capsys.readouterr().err

    def test_bench_targets(self):
        parser = build_parser()
        for target in ["table1", "table2", "table3", "figure3", "figure4"]:
            args = parser.parse_args(["bench", target])
            assert args.target == target
