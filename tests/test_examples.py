"""Smoke tests: every example script must run and produce its key output.

Each example runs in a subprocess, except the chess one: solving the
KRK endgame takes seconds, and ``repro.datasets.chess`` caches the
solve per process.  That example runs in-process instead, so in a full
run it reuses the solve ``tests/datasets/test_chess.py`` already made.
"""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str) -> str:
    process = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "'B,C -> A' discovered: True" in out
        assert "minimal keys" in out

    def test_schema_reverse_engineering(self):
        out = run_example("schema_reverse_engineering.py")
        assert "zip -> city: True" in out
        assert "proposed BCNF decomposition" in out

    def test_dirty_data_cleaning(self):
        out = run_example("dirty_data_cleaning.py")
        assert "after repair: holds=True" in out

    def test_association_rules(self):
        out = run_example("association_rules.py")
        assert "association rules" in out
        assert "=>" in out

    def test_scaling_rows(self):
        out = run_example("scaling_rows.py")
        assert "fitted scaling exponents" in out
        assert "TANE/MEM" in out

    def test_sampled_screening(self):
        out = run_example("sampled_screening.py")
        assert "recovered: True" in out

    def test_key_discovery(self):
        out = run_example("key_discovery.py")
        assert "recovered ('employee_id',): True" in out
        assert "exact keys surviving the mess: 0" in out

    @pytest.mark.slow
    def test_chess_endgame(self, capsys):
        runpy.run_path(str(EXAMPLES / "chess_endgame.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "matches UCI krkopt on 18/18 classes" in out
        assert "N = 1" in out

    def test_all_examples_are_tested(self):
        scripts = {p.name for p in EXAMPLES.glob("*.py")}
        tested = {
            "quickstart.py", "schema_reverse_engineering.py",
            "dirty_data_cleaning.py", "association_rules.py",
            "scaling_rows.py", "chess_endgame.py", "sampled_screening.py",
            "key_discovery.py",
        }
        assert scripts <= tested, f"untested examples: {scripts - tested}"
