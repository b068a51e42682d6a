"""Additional CLI coverage: measure flag, bench figure output, errors."""

import pytest

from repro.cli import main


@pytest.fixture
def dirty_csv(tmp_path):
    path = tmp_path / "dirty.csv"
    lines = ["sensor,location"]
    lines += ["s1,hall"] * 6 + ["s1,roof"] + ["s2,yard"] * 5
    path.write_text("\n".join(lines) + "\n")
    return path


class TestMeasureFlag:
    def test_g2_measure(self, dirty_csv, capsys):
        assert main(["discover", str(dirty_csv), "--epsilon", "0.6", "--measure", "g2"]) == 0
        out = capsys.readouterr().out
        assert "sensor -> location" in out

    def test_g1_measure(self, dirty_csv, capsys):
        assert main(["discover", str(dirty_csv), "--epsilon", "0.2", "--measure", "g1"]) == 0

    def test_invalid_measure_rejected_by_parser(self, dirty_csv):
        with pytest.raises(SystemExit):
            main(["discover", str(dirty_csv), "--measure", "g9"])


class TestBenchFigure3:
    def test_figure3_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert main(["bench", "figure3"]) == 0
        out = capsys.readouterr().out
        assert "N_eps/N_0" in out

    def test_ablation_strategy(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert main(["bench", "ablation-strategy"]) == 0
        assert "partition strategy" in capsys.readouterr().out

    def test_scale_flag_accepts_every_scale(self, capsys):
        assert main(["bench", "ablation-engine", "--scale", "smoke"]) == 0
        assert "scale=smoke" in capsys.readouterr().out


class TestKeysCommand:
    def test_exact_keys(self, tmp_path, capsys):
        path = tmp_path / "keyed.csv"
        path.write_text("id,v\n1,x\n2,x\n3,y\n")
        assert main(["keys", str(path)]) == 0
        out = capsys.readouterr().out
        assert "{id}" in out

    def test_approximate_keys(self, tmp_path, capsys):
        path = tmp_path / "almost.csv"
        path.write_text("a,b\n0,7\n0,8\n1,9\n2,10\n")
        assert main(["keys", str(path), "--epsilon", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "{a}" in out and "g3=0.25" in out

    def test_max_size(self, tmp_path, capsys):
        path = tmp_path / "pairkey.csv"
        path.write_text("a,b\n0,0\n0,1\n1,0\n")
        assert main(["keys", str(path), "--max-size", "1"]) == 0
        assert "0 minimal UCCs" in capsys.readouterr().out


class TestErrorPaths:
    def test_missing_file(self, capsys, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["discover", str(tmp_path / "nope.csv")])

    def test_empty_csv_reports_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["discover", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dataset_unknown_name_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["dataset", "iris", str(tmp_path / "x.csv")])
