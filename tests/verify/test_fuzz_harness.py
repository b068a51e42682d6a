"""The fuzz driver: seed determinism, shrinking, serialization, replay.

The centrepiece is the broken-engine acceptance test: arm the
silent-corruption fault point so every validity outcome lies, and the
harness must *detect* the lie (via an independent oracle), *shrink*
the failing relation, and *serialize* a minimized case that replays —
reproducing under the fault, silent without it.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.model.relation import Relation
from repro.testing import faults
from repro.verify.fuzz import (
    fuzz,
    fuzz_seed,
    relation_for_seed,
    replay_case,
    scenario_for_seed,
    shrink_failure,
)
from repro.verify.matrix import build_matrix


def _corrupt(outcome):
    if outcome.valid:
        return outcome._replace(valid=False, exactly_valid=False)
    return outcome


_ARM = dict(point="tane.validity.outcome", transform=_corrupt, times=10**9)


class TestSeedDerivation:
    def test_relations_are_deterministic(self):
        for seed in range(10):
            first, desc_first = relation_for_seed(seed)
            second, desc_second = relation_for_seed(seed)
            assert desc_first == desc_second
            assert list(first.iter_rows()) == list(second.iter_rows())

    def test_scenarios_are_deterministic_and_valid(self):
        for seed in range(30):
            scenario = scenario_for_seed(seed)
            assert scenario == scenario_for_seed(seed)
            assert 0.0 <= scenario.epsilon <= 1.0
            if scenario.epsilon == 0.0:
                assert scenario.measure == "g3"

    def test_generator_pool_covers_degenerate_shapes(self):
        descriptions = " ".join(relation_for_seed(seed)[1] for seed in range(120))
        for kind in ("random", "zipf", "correlated", "planted", "constant",
                     "single-row", "single-column", "empty", "binary"):
            assert kind in descriptions, f"generator pool never produced {kind}"


class TestShrinking:
    def test_shrinker_minimizes_against_predicate(self):
        relation, _ = relation_for_seed(0)
        assert relation.num_rows > 5

        def recheck(candidate: Relation) -> bool:
            return candidate.num_rows >= 1

        shrunk = shrink_failure(relation, recheck)
        assert shrunk.num_rows == 1
        assert shrunk.num_attributes == 1

    def test_shrinker_keeps_nonreproducing_relation_intact(self):
        relation, _ = relation_for_seed(0)
        shrunk = shrink_failure(relation, lambda candidate: False)
        assert shrunk.num_rows == relation.num_rows
        assert shrunk.num_attributes == relation.num_attributes


class TestFuzzCampaign:
    @pytest.mark.smoke
    def test_clean_build_verifies_clean(self, tmp_path):
        report = fuzz(6, matrix="smoke", workdir=tmp_path, failure_dir=None)
        assert report.ok
        assert report.seeds == list(range(6))

    def test_seed_base_shards_the_range(self, tmp_path):
        report = fuzz(2, matrix="smoke", seed_base=40, workdir=tmp_path,
                      failure_dir=None, metamorphic=False)
        assert report.seeds == [40, 41]


class TestBrokenEngine:
    """The acceptance contract: detect, shrink, serialize, replay."""

    def test_detects_shrinks_and_serializes(self, tmp_path):
        workdir = tmp_path / "work"
        failure_dir = tmp_path / "failures"
        cells = build_matrix("smoke")
        # Seed 4 derives a correlated relation with real exact FDs, so a
        # lying engine disagrees with the bruteforce oracle.
        with faults.inject_mutation(**_ARM):
            failure = fuzz_seed(4, cells, workdir=workdir, failure_dir=failure_dir)

        assert failure is not None, "harness missed a fully corrupted engine"
        assert failure.target.cell.startswith(("oracle:", "metamorphic:"))
        assert failure.case_dir is not None and failure.case_dir.is_dir()

        payload = json.loads((failure.case_dir / "case.json").read_text())
        original, _ = relation_for_seed(4)
        shrunk_rows = len(payload["relation"]["rows"])
        assert shrunk_rows <= original.num_rows
        assert payload["seed"] == 4
        assert payload["target"] == failure.target.describe()
        assert payload["cells"][0]["name"] == "reference"

    def test_minimized_case_replays(self, tmp_path):
        workdir = tmp_path / "work"
        failure_dir = tmp_path / "failures"
        cells = build_matrix("smoke")
        with faults.inject_mutation(**_ARM):
            failure = fuzz_seed(4, cells, workdir=workdir, failure_dir=failure_dir)
        assert failure is not None

        with faults.inject_mutation(**_ARM):
            reproduced = replay_case(failure.case_dir, workdir=workdir)
        assert reproduced, "minimized case failed to reproduce under the fault"
        assert any(
            m.cell == failure.target.cell and m.dimension == failure.target.dimension
            for m in reproduced
        )
        assert replay_case(failure.case_dir, workdir=workdir) == []

    def test_planted_target_case_replays(self, tmp_path):
        """Seed 3's relation has no exact FDs, so only planted recovery
        catches the lie — and such cases must replay through the seed."""
        workdir = tmp_path / "work"
        cells = build_matrix("smoke")
        with faults.inject_mutation(**_ARM):
            failure = fuzz_seed(3, cells, workdir=workdir,
                                failure_dir=tmp_path / "failures")
        assert failure is not None
        assert failure.target.cell == "metamorphic:planted"
        with faults.inject_mutation(**_ARM):
            assert replay_case(failure.case_dir, workdir=workdir)
        assert replay_case(failure.case_dir, workdir=workdir) == []

    def test_case_naming_a_process_cell_is_refused(self, tmp_path):
        """Cases saved while a process executor existed name one per
        cell; an in-process cell still replays, a process cell cannot
        be replayed as recorded and is refused with a typed error."""
        workdir = tmp_path / "work"
        cells = build_matrix("smoke")
        with faults.inject_mutation(**_ARM):
            failure = fuzz_seed(4, cells, workdir=workdir,
                                failure_dir=tmp_path / "failures")
        assert failure is not None
        case_file = failure.case_dir / "case.json"
        payload = json.loads(case_file.read_text())
        for cell in payload["cells"]:
            cell.update(executor="serial", workers=0)
        case_file.write_text(json.dumps(payload))
        assert replay_case(failure.case_dir, workdir=workdir) == []

        process_cell = dict(payload["cells"][0], name="process",
                            executor="process", workers=2)
        payload["cells"].append(process_cell)
        case_file.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="'process' executor"):
            replay_case(failure.case_dir, workdir=workdir)


class TestCli:
    @pytest.mark.smoke
    def test_verify_command_clean(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 seeds verified: clean" in out

    def test_verify_command_reports_failures(self, capsys, tmp_path):
        failure_dir = tmp_path / "failures"
        with faults.inject_mutation(**_ARM):
            code = main(["verify", "--seeds", "1", "--seed-base", "4",
                         "--failure-dir", str(failure_dir)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "minimized case" in out
        cases = list(failure_dir.iterdir())
        assert len(cases) == 1

    def test_verify_replay_of_fixed_case(self, capsys, tmp_path):
        failure_dir = tmp_path / "failures"
        with faults.inject_mutation(**_ARM):
            main(["verify", "--seeds", "1", "--seed-base", "4",
                  "--failure-dir", str(failure_dir)])
        capsys.readouterr()
        case = next(failure_dir.iterdir())
        # Fault disarmed: the "bug" is fixed, so the case must not reproduce.
        assert main(["verify", "--replay", str(case)]) == 0
        assert "no longer reproduces" in capsys.readouterr().out

    def test_discover_engine_flag(self, capsys, tmp_path):
        import re

        from repro.datasets.csvio import write_csv
        from repro.datasets.synthetic import planted_fd_relation

        relation, _ = planted_fd_relation(30, 2, 1, seed=1)
        csv_path = tmp_path / "planted.csv"
        write_csv(relation, csv_path)
        # The result repr embeds elapsed wall time, which is noise.
        _stable = lambda out: re.sub(r"\d+\.\d+s", "_s", out)
        assert main(["discover", str(csv_path), "--engine", "pure"]) == 0
        pure_out = _stable(capsys.readouterr().out)
        assert main(["discover", str(csv_path)]) == 0
        assert _stable(capsys.readouterr().out) == pure_out
