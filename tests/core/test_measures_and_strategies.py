"""Tests for the g1/g2 measure options and the partition strategies."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import (
    dependency_error,
    dependency_g1,
    dependency_g2,
    discover_fds_bruteforce,
)
from repro.bench.workloads import FromSingletonsExecutor
from repro.core.tane import TaneConfig, discover
from repro.exceptions import ConfigurationError
from repro.model.relation import Relation
from repro.testing.strategies import relations

RELATIONS = relations(max_rows=18, max_columns=4, max_domain=3)
SLOW = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestMeasureDefinitions:
    @pytest.fixture
    def rel(self):
        # group 0: B values [1,1,2]; group 1: B values [3].
        return Relation.from_rows([[0, 1], [0, 1], [0, 2], [1, 3]], ["A", "B"])

    def test_g1(self, rel):
        # violating ordered pairs: (0,2),(2,0),(1,2),(2,1) of 16
        assert dependency_g1(rel, 1, 1) == pytest.approx(4 / 16)

    def test_g2(self, rel):
        # rows 0,1,2 are involved
        assert dependency_g2(rel, 1, 1) == pytest.approx(3 / 4)

    def test_dispatch(self, rel):
        assert dependency_error(rel, 1, 1, "g1") == dependency_g1(rel, 1, 1)
        assert dependency_error(rel, 1, 1, "g2") == dependency_g2(rel, 1, 1)
        with pytest.raises(ValueError):
            dependency_error(rel, 1, 1, "g9")

    def test_empty_relation(self):
        rel = Relation.from_rows([], ["A", "B"])
        assert dependency_g1(rel, 1, 0) == 0.0
        assert dependency_g2(rel, 1, 0) == 0.0


class TestMeasureDiscovery:
    def test_bad_measure_rejected(self):
        with pytest.raises(ConfigurationError):
            TaneConfig(measure="g7")

    def test_g1_threshold_semantics(self):
        rel = Relation.from_rows([[0, 1], [0, 1], [0, 2], [1, 3]], ["A", "B"])
        # g1(A -> B) = 0.25: included at eps 0.25, excluded at 0.2
        included = discover(rel, TaneConfig(epsilon=0.25, measure="g1")).dependencies
        excluded = discover(rel, TaneConfig(epsilon=0.20, measure="g1")).dependencies
        assert any(fd.lhs == 1 and fd.rhs == 1 for fd in included)
        assert not any(fd.lhs == 1 and fd.rhs == 1 for fd in excluded)

    def test_measures_order_results(self):
        """g3 <= g2 pointwise, so a g2 threshold admits no more deps
        than the same g3 threshold forbids... concretely: every
        g2-valid dependency is g3-valid at the same eps."""
        rel = Relation.from_rows(
            [[i % 3, (i * 2) % 5, i % 2] for i in range(24)], ["A", "B", "C"]
        )
        eps = 0.3
        g2_deps = discover(rel, TaneConfig(epsilon=eps, measure="g2")).dependencies
        g3_deps = discover(rel, TaneConfig(epsilon=eps, measure="g3")).dependencies
        g3_lhs = g3_deps.lhs_masks_by_rhs()
        for fd in g2_deps:
            assert any(lhs & ~fd.lhs == 0 for lhs in g3_lhs.get(fd.rhs, []))

    @given(RELATIONS, st.sampled_from(["g1", "g2"]), st.sampled_from([0.1, 0.3]))
    @SLOW
    def test_matches_oracle(self, relation, measure, epsilon):
        result = discover(relation, TaneConfig(epsilon=epsilon, measure=measure))
        expected = discover_fds_bruteforce(relation, epsilon, measure=measure)
        assert result.dependencies == expected

    @given(RELATIONS, st.sampled_from(["g1", "g2"]))
    @SLOW
    def test_reported_errors_match_definition(self, relation, measure):
        result = discover(relation, TaneConfig(epsilon=0.4, measure=measure))
        for fd in result.dependencies:
            expected = dependency_error(relation, fd.lhs, fd.rhs, measure)
            assert fd.error == pytest.approx(expected)


def _from_singletons(relation, **kwargs):
    """Discover with every partition rebuilt from the singletons."""
    executor = FromSingletonsExecutor(relation)
    return discover(relation, TaneConfig(executor=executor, **kwargs)), executor


class TestPartitionStrategy:
    def test_same_result_as_pairwise(self, figure1_relation):
        pairwise = discover(figure1_relation, TaneConfig()).dependencies
        singles, _ = _from_singletons(figure1_relation)
        assert pairwise == singles.dependencies

    def test_more_products_computed(self, figure1_relation):
        pairwise = discover(figure1_relation, TaneConfig()).statistics
        _, executor = _from_singletons(figure1_relation)
        assert executor.products_computed >= pairwise.partition_products

    @given(RELATIONS)
    @SLOW
    def test_matches_oracle(self, relation):
        result, _ = _from_singletons(relation)
        assert result.dependencies == discover_fds_bruteforce(relation)

    def test_works_with_approximate(self, figure1_relation):
        base = discover(figure1_relation, TaneConfig(epsilon=0.25)).dependencies
        alt, _ = _from_singletons(figure1_relation, epsilon=0.25)
        assert base == alt.dependencies

    def test_rank_only_level_costs_its_chain(self, figure1_relation):
        # |X| <= 2 makes level 3 the rank-only last level; on a short
        # relation the ablation still builds each of its candidates from
        # two singleton products.
        result, executor = _from_singletons(figure1_relation, max_lhs_size=2)
        sizes = result.statistics.level_sizes
        assert len(sizes) == 3 and sizes[2] > 0
        assert executor.products_computed == sizes[1] + 2 * sizes[2]
