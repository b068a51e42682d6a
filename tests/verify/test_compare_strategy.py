"""The dfd strategy-comparison cells of the verification matrix.

``compare_strategy_dfd`` re-discovers the reference scenario with the
random-walk strategy under every engine/store/checkpoint shape and
demands the exact levelwise cover.  Checked clean on structured
relations, skipped on non-monotone measures (the config layer rejects
those for dfd by design), and shown to *catch* a corrupted walk via
the ``search.node.outcome`` fault point.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import load_checkpoint
from repro.datasets.synthetic import correlated_relation, planted_fd_relation
from repro.testing import faults
from repro.verify import runner
from repro.verify.fuzz import relation_for_seed, scenario_for_seed
from repro.verify.matrix import REFERENCE_CELL
from repro.verify.runner import Scenario, compare_strategy_dfd, run_cell


@pytest.fixture(scope="module")
def relation():
    return correlated_relation(50, 4, num_factors=2, noise=0.1, seed=9)


def _reference(relation, scenario, workdir):
    return run_cell(relation, scenario, REFERENCE_CELL, workdir=workdir).signature


class TestClean:
    @pytest.mark.parametrize("epsilon,measure", [
        (0.0, "g3"), (0.1, "g3"), (0.1, "g1"),
    ])
    def test_clean_on_structured_relation(self, relation, tmp_path, epsilon, measure):
        scenario = Scenario(epsilon=epsilon, measure=measure)
        reference = _reference(relation, scenario, tmp_path)
        found = compare_strategy_dfd(
            relation, scenario, reference, 7, workdir=tmp_path
        )
        assert found == []

    def test_clean_on_planted_relation(self, tmp_path):
        planted, _ = planted_fd_relation(40, 2, 2, seed=4)
        scenario = Scenario()
        reference = _reference(planted, scenario, tmp_path)
        assert compare_strategy_dfd(
            planted, scenario, reference, 4, workdir=tmp_path
        ) == []


class TestCheckpointVariant:
    def test_resumes_on_a_smoke_matrix_relation(self, tmp_path, monkeypatch):
        """The checkpoint variant must really resume, from a real
        mid-walk snapshot, on some relation `repro verify` checks by
        default (seeds 0-24), and still match the reference."""
        resumed = []
        discover = runner.discover

        def spy(relation, config):
            if config.resume:
                state = load_checkpoint(config.checkpoint_dir)
                resumed.append(state is not None and not state.complete)
            return discover(relation, config)

        monkeypatch.setattr(runner, "discover", spy)
        for seed in range(25):
            relation, _generator = relation_for_seed(seed)
            scenario = scenario_for_seed(seed)
            reference = _reference(relation, scenario, tmp_path)
            found = compare_strategy_dfd(
                relation, scenario, reference, seed, workdir=tmp_path
            )
            assert found == []
            if resumed:
                break
        assert resumed == [True]


class TestNonMonotoneSkip:
    @pytest.mark.parametrize("measure", ["mu_plus", "rfi"])
    def test_non_monotone_scenarios_are_skipped(self, relation, tmp_path, measure):
        # The config layer rejects dfd under these measures; the verify
        # cell must skip rather than crash on the ConfigurationError.
        scenario = Scenario(epsilon=0.2, measure=measure)
        reference = _reference(relation, scenario, tmp_path)
        assert compare_strategy_dfd(
            relation, scenario, reference, 7, workdir=tmp_path
        ) == []


class TestDetection:
    def test_corrupted_walk_classification_is_caught(self, relation, tmp_path):
        """A walk whose node verdicts are silently flipped must mismatch."""
        scenario = Scenario()
        reference = _reference(relation, scenario, tmp_path)
        assert reference.fds, "fixture relation must have dependencies"

        def corrupt(outcome):
            if outcome.valid:
                return outcome._replace(valid=False, exactly_valid=False)
            return outcome

        with faults.inject_mutation("search.node.outcome", corrupt, times=10**9):
            found = compare_strategy_dfd(
                relation, scenario, reference, 7, workdir=tmp_path
            )
        assert found, "corrupted walk escaped the strategy comparison"
        assert all(m.cell.startswith("compare_strategy:dfd") for m in found)
