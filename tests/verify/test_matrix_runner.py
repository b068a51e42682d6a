"""The config matrix and the differential runner.

Covers cell construction/round-tripping, signature diffing semantics
(which dimensions a cell compares), clean verification of structured
relations across the whole smoke matrix, the checkpoint cell's real
interrupt/resume cycle, and the oracle comparison's ability to flag a
fabricated wrong reference.
"""

from __future__ import annotations

import pytest

from repro.core.tane import TaneConfig, discover
from repro.datasets.synthetic import (
    correlated_relation,
    planted_fd_relation,
    random_relation,
)
from repro.exceptions import ConfigurationError
from repro.obs.trace import Tracer
from repro.search.scheduler import NodeEngine
from repro.verify.matrix import (
    COMPARE_ALL,
    ConfigCell,
    REFERENCE_CELL,
    build_matrix,
    full_matrix,
    smoke_matrix,
)
from repro.verify.runner import (
    RunSignature,
    Scenario,
    _after_first_snapshot,
    _Interrupt,
    _VerifyInterrupt,
    compare_strategy_dfd,
    compare_with_oracles,
    run_cell,
    verify_relation,
)


class TestMatrix:
    def test_smoke_matrix_shape(self):
        cells = smoke_matrix()
        assert cells[0] == REFERENCE_CELL
        names = [cell.name for cell in cells]
        assert len(names) == len(set(names))
        assert {"pure-engine", "disk-store", "checkpoint-resume", "traced",
                "no-rule8", "no-key-pruning", "no-g3-bounds"} <= set(names)

    def test_full_matrix_extends_smoke(self):
        smoke_names = {cell.name for cell in smoke_matrix()}
        full_names = {cell.name for cell in full_matrix()}
        assert smoke_names < full_names
        assert full_names - smoke_names == {"disk-checkpoint", "pure-checkpoint"}

    def test_build_matrix_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            build_matrix("exhaustive")

    def test_ablation_cells_compare_fewer_dimensions(self):
        by_name = {cell.name: cell for cell in smoke_matrix()}
        assert by_name["pure-engine"].compare == COMPARE_ALL
        assert "counters" not in by_name["no-rule8"].compare
        assert by_name["no-key-pruning"].compare == frozenset({"fds", "errors"})

    def test_cell_describe_roundtrip(self):
        for cell in full_matrix():
            assert ConfigCell.from_description(cell.describe()) == cell

    def test_scenario_describe_roundtrip(self):
        scenario = Scenario(epsilon=0.1, measure="g2", max_lhs_size=3)
        assert Scenario.from_description(scenario.describe()) == scenario

    def test_checkpoint_cell_requires_directory(self):
        cell = ConfigCell(name="ck", checkpoint=True)
        with pytest.raises(ConfigurationError):
            cell.build_config()

    def test_every_cell_builds_a_config(self, tmp_path):
        for cell in full_matrix():
            config = cell.build_config(epsilon=0.05, checkpoint_dir=tmp_path)
            assert config.epsilon == 0.05
            assert config.engine == cell.engine
            assert (config.tracer is not None) == cell.traced


def _signature(fds=(), errors=None, keys=(), counters=(("validity_tests", 1),)):
    if errors is None:
        errors = tuple((lhs, rhs, 0.0) for lhs, rhs in fds)
    return RunSignature(
        fds=tuple(fds), errors=tuple(errors), keys=tuple(keys), counters=tuple(counters)
    )


class TestSignatureDiff:
    def test_identical_signatures_no_mismatch(self):
        sig = _signature(fds=((1, 2), (4, 0)), keys=(3,))
        assert sig.diff(sig, COMPARE_ALL, "cell") == []

    def test_cover_difference_reported_once(self):
        ours = _signature(fds=((1, 2),))
        theirs = _signature(fds=((1, 2), (4, 0)))
        found = ours.diff(theirs, COMPARE_ALL, "cell")
        assert [m.dimension for m in found] == ["fds"]
        assert found[0].cell == "cell"

    def test_error_difference_reported_when_covers_agree(self):
        ours = _signature(fds=((1, 2),), errors=((1, 2, 0.1),))
        theirs = _signature(fds=((1, 2),), errors=((1, 2, 0.2),))
        found = ours.diff(theirs, COMPARE_ALL, "cell")
        assert [m.dimension for m in found] == ["errors"]

    def test_excluded_dimensions_not_compared(self):
        ours = _signature(keys=(3,), counters=(("validity_tests", 1),))
        theirs = _signature(keys=(), counters=(("validity_tests", 9),))
        assert ours.diff(theirs, frozenset({"fds", "errors"}), "cell") == []
        found = ours.diff(theirs, COMPARE_ALL, "cell")
        assert {m.dimension for m in found} == {"keys", "counters"}


@pytest.fixture(scope="module")
def structured():
    relation, _ = planted_fd_relation(80, 2, 2, seed=7)
    return relation


class TestVerifyRelation:
    @pytest.mark.smoke
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_smoke_matrix_clean_on_structured_relation(self, structured, tmp_path, epsilon):
        report = verify_relation(
            structured, Scenario(epsilon=epsilon), smoke_matrix(), workdir=tmp_path
        )
        assert report.ok, report.mismatches
        assert report.cell_names[0] == "reference"
        assert "traced" in report.traces

    def test_correlated_relation_clean_with_lhs_limit(self, tmp_path):
        relation = correlated_relation(60, 5, num_factors=2, noise=0.1, seed=5)
        report = verify_relation(
            relation, Scenario(epsilon=0.05, max_lhs_size=3),
            smoke_matrix(), workdir=tmp_path,
        )
        assert report.ok, report.mismatches

    def test_checkpoint_cell_interrupts_and_resumes(self, structured, tmp_path):
        reference = run_cell(
            structured, Scenario(), REFERENCE_CELL, workdir=tmp_path
        )
        cell = ConfigCell(name="checkpoint-resume", checkpoint=True)
        resumed = run_cell(structured, Scenario(), cell, workdir=tmp_path)
        # The relation reaches level 2, so the interrupt fired...
        assert len(reference.result.statistics.level_sizes) >= 2
        assert resumed.resumed
        # ...the interrupted-then-resumed run left its checkpoint behind...
        assert (tmp_path / "checkpoint-checkpoint-resume").exists()
        # ...and still reproduced the uninterrupted signature exactly.
        assert resumed.signature == reference.signature

    def test_dfd_checkpoint_interrupts_and_resumes(self, tmp_path):
        relation = random_relation(80, 8, 3, seed=9)
        config = dict(strategy="dfd", dfd_seed=5, checkpoint_dir=tmp_path)
        uninterrupted = discover(relation, TaneConfig(strategy="dfd", dfd_seed=5))
        # The walk runs past its first snapshot, so the interrupt fires.
        assert uninterrupted.statistics.validity_tests > 2 * NodeEngine.SNAPSHOT_TESTS
        interrupt = _Interrupt(_after_first_snapshot())
        with pytest.raises(_VerifyInterrupt):
            discover(relation, TaneConfig(tracer=Tracer(sinks=[interrupt]), **config))
        assert interrupt.fired
        resumed = discover(relation, TaneConfig(resume=True, **config))
        assert resumed.dependencies == uninterrupted.dependencies
        reference = run_cell(relation, Scenario(), REFERENCE_CELL, workdir=tmp_path)
        assert compare_strategy_dfd(
            relation, Scenario(), reference.signature, 5, workdir=tmp_path
        ) == []

    def test_oracles_flag_fabricated_cover(self, structured, tmp_path):
        reference = run_cell(
            structured, Scenario(), REFERENCE_CELL, workdir=tmp_path
        ).signature
        lying = RunSignature(
            fds=reference.fds[1:],  # drop one real dependency
            errors=reference.errors[1:],
            keys=reference.keys,
            counters=reference.counters,
        )
        found = compare_with_oracles(structured, Scenario(), lying)
        assert {m.cell for m in found} == {"oracle:bruteforce", "oracle:fdep"}

    def test_oracles_pass_honest_cover(self, structured, tmp_path):
        reference = run_cell(
            structured, Scenario(epsilon=0.1), REFERENCE_CELL, workdir=tmp_path
        ).signature
        assert compare_with_oracles(structured, Scenario(epsilon=0.1), reference) == []
