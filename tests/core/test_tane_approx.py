"""Tests for the approximate-dependency variant of TANE."""

import pytest

import repro.search.scheduler as scheduler
from repro.baselines.bruteforce import dependency_g3, discover_fds_bruteforce
from repro.core.tane import TaneConfig, discover, discover_approximate_fds, discover_fds
from repro.core.uccs import discover_uccs
from repro.model.fd import FunctionalDependency
from repro.model.relation import Relation


class TestSemantics:
    def test_epsilon_zero_equals_exact(self, figure1_relation):
        exact = discover_fds(figure1_relation)
        approx = discover_approximate_fds(figure1_relation, 0.0)
        assert exact.dependencies == approx.dependencies

    def test_figure1_at_quarter(self, figure1_relation):
        """At eps=0.25 the oracle's minimal approximate set must match."""
        result = discover_approximate_fds(figure1_relation, 0.25)
        oracle = discover_fds_bruteforce(figure1_relation, 0.25)
        assert result.dependencies == oracle

    def test_errors_are_exact_g3(self, figure1_relation):
        result = discover_approximate_fds(figure1_relation, 0.3)
        for fd in result.dependencies:
            expected = dependency_g3(figure1_relation, fd.lhs, fd.rhs)
            assert fd.error == pytest.approx(expected)

    def test_epsilon_one_accepts_everything_small(self):
        rel = Relation.from_rows([[1, 2], [2, 1], [1, 1]], ["A", "B"])
        result = discover_approximate_fds(rel, 1.0)
        # At eps=1 every dependency "holds"; minimal ones have empty lhs.
        assert {(fd.lhs, fd.rhs) for fd in result.dependencies} == {(0, 0), (0, 1)}

    def test_monotone_in_epsilon_for_implication(self):
        """Larger eps never loses coverage: every dependency at a lower
        eps is implied by (some subset-lhs dependency in) a higher-eps
        result."""
        rel = Relation.from_rows(
            [[i % 3, (i * 2) % 5, i % 2, i] for i in range(30)],
            ["A", "B", "C", "D"],
        )
        low = discover_approximate_fds(rel, 0.05).dependencies
        high = discover_approximate_fds(rel, 0.2).dependencies
        high_lhs = high.lhs_masks_by_rhs()
        for fd in low:
            assert any(lhs & ~fd.lhs == 0 for lhs in high_lhs.get(fd.rhs, [])), (
                f"{fd} not covered at higher epsilon"
            )

    def test_threshold_is_inclusive(self):
        # 1 bad row of 4: g3 = 0.25 — valid at eps exactly 0.25.
        rel = Relation.from_rows([[0, 1], [0, 1], [0, 1], [0, 2]], ["A", "B"])
        result = discover_approximate_fds(rel, 0.25)
        target = FunctionalDependency.from_names(rel.schema, [], "B")
        # {} -> B has g3 = 1/4
        assert target in result.dependencies

    def test_below_threshold_excluded(self):
        rel = Relation.from_rows([[0, 1], [0, 1], [0, 1], [0, 2]], ["A", "B"])
        result = discover_approximate_fds(rel, 0.24)
        assert FunctionalDependency.from_names(rel.schema, [], "B") not in result.dependencies


class TestKeyHandling:
    def test_keys_not_deleted_in_approx_mode(self):
        """The regression the paper glosses over: a dependency whose
        lattice path crosses a key must still be found (see
        _TaneRun._prune)."""
        rows = [
            [1, "a", "$", "Flower"],
            [1, "A", "L", "Tulip"],
            [2, "A", "$", "Daffodil"],
            [2, "A", "$", "Flower"],
            [2, "b", "L", "Lily"],
            [3, "b", "$", "Orchid"],
            [3, "c", "L", "Flower"],
            [3, "c", "#", "Rose"],
        ]
        rel = Relation.from_rows(rows, ["A", "B", "C", "D"])
        result = discover_approximate_fds(rel, 0.25)
        # {A,B} -> D has g3 = 0.25 and its lattice superset {A,B,D}
        # contains the key {A,D}.
        target = FunctionalDependency.from_names(rel.schema, ["A", "B"], "D")
        assert target in result.dependencies

    def test_minimal_keys_still_reported(self, figure1_relation):
        approx = discover_approximate_fds(figure1_relation, 0.1)
        exact = discover_fds(figure1_relation)
        assert sorted(approx.keys) == sorted(exact.keys)

    @pytest.mark.parametrize("num_rows", [0, 1])
    @pytest.mark.parametrize("python_int_levels", [False, True])
    def test_keys_of_relations_below_two_rows(self, num_rows, python_int_levels, monkeypatch):
        # π_∅ has no stripped class below two rows, so ∅ looks like a
        # superkey; it must not hide the singleton keys in approximate
        # mode, whichever level form the search runs on.
        if python_int_levels:
            monkeypatch.setattr(scheduler, "MAX_ARRAY_ATTRIBUTES", 0)
        rel = Relation.from_rows([[0, 0, 0]] * num_rows, ["A", "B", "C"])
        expected = discover_uccs(rel).uccs
        assert expected == [1, 2, 4]
        for epsilon in (0.0, 0.1):
            assert discover(rel, TaneConfig(epsilon=epsilon)).keys == expected
            assert discover_uccs(rel, epsilon=epsilon).uccs == expected


class TestBoundsOptimization:
    def test_bounds_do_not_change_result(self):
        rel = Relation.from_rows(
            [[i % 4, (i // 2) % 3, i % 5, (i * 3) % 7] for i in range(40)],
            ["A", "B", "C", "D"],
        )
        with_bounds = discover(rel, TaneConfig(epsilon=0.1, use_g3_bounds=True))
        without = discover(rel, TaneConfig(epsilon=0.1, use_g3_bounds=False))
        assert with_bounds.dependencies == without.dependencies

    def test_bounds_reduce_exact_computations(self):
        rel = Relation.from_rows(
            [[i % 2, i % 13, (i * 5) % 11, i % 3] for i in range(60)],
            ["A", "B", "C", "D"],
        )
        with_bounds = discover(rel, TaneConfig(epsilon=0.02, use_g3_bounds=True)).statistics
        without = discover(rel, TaneConfig(epsilon=0.02, use_g3_bounds=False)).statistics
        assert with_bounds.g3_exact_computations <= without.g3_exact_computations
        assert without.g3_bound_rejections == 0

    def test_epsilon_recorded_in_result(self, figure1_relation):
        result = discover_approximate_fds(figure1_relation, 0.125)
        assert result.epsilon == 0.125
        assert "approximate" in repr(result)
