"""Tests pinning down what the search statistics actually count."""

from repro.bench.workloads import FromSingletonsExecutor
from repro.core.tane import TaneConfig, discover, discover_fds
from repro.model.relation import Relation


class TestFigure1Trace:
    def test_level_sizes_match_walkthrough(self, figure1_relation):
        """Pins the docs/ALGORITHM.md walkthrough: 4 singletons, all 6
        pairs, then a single triple ({A,B,C} — the only size-3 set all
        of whose subsets survive the key pruning of {A,D}/{B,D})."""
        stats = discover_fds(figure1_relation).statistics
        assert stats.level_sizes == [4, 6, 1]
        assert stats.pruned_level_sizes == [4, 4, 1]


class TestCountsSemantics:
    def test_products_match_generated_sets_pairwise(self, figure1_relation):
        """With the pairwise strategy, each set beyond level 1 costs
        exactly one product."""
        stats = discover_fds(figure1_relation).statistics
        generated_beyond_level1 = sum(stats.level_sizes[1:])
        assert stats.partition_products == generated_beyond_level1

    def test_level_sizes_vs_pruned(self, figure1_relation):
        stats = discover_fds(figure1_relation).statistics
        assert len(stats.level_sizes) == len(stats.pruned_level_sizes)
        for generated, surviving in zip(stats.level_sizes, stats.pruned_level_sizes):
            assert 0 <= surviving <= generated

    def test_validity_tests_bounded_by_edges(self, figure1_relation):
        """v <= Σ_levels |L_ℓ| * ℓ (each set tests at most |X| edges)."""
        stats = discover_fds(figure1_relation).statistics
        upper = sum(size * (level + 1) for level, size in enumerate(stats.level_sizes))
        assert 0 < stats.validity_tests <= upper

    def test_keys_found_matches_keys_list(self, figure1_relation):
        result = discover_fds(figure1_relation)
        assert result.statistics.keys_found == len(result.keys)

    def test_exact_run_has_no_g3_activity(self, figure1_relation):
        stats = discover_fds(figure1_relation).statistics
        assert stats.g3_exact_computations == 0
        assert stats.g3_bound_rejections == 0

    def test_approximate_run_counts_g3(self):
        rel = Relation.from_rows(
            [[i % 3, (i * 7) % 5, i % 2] for i in range(30)], ["A", "B", "C"]
        )
        stats = discover(rel, TaneConfig(epsilon=0.1)).statistics
        assert stats.g3_exact_computations + stats.g3_bound_rejections > 0
        assert stats.error_computations >= stats.g3_exact_computations

    def test_g3_exact_computations_aliases_error_computations(self):
        """On a g3 run every error computation *is* an exact g3
        computation, so the documented alias must agree exactly."""
        rel = Relation.from_rows(
            [[i % 3, (i * 7) % 5, i % 2] for i in range(30)], ["A", "B", "C"]
        )
        stats = discover(rel, TaneConfig(epsilon=0.1, measure="g3")).statistics
        assert stats.error_computations > 0
        assert stats.g3_exact_computations == stats.error_computations

    def test_g1_g2_runs_count_measure_agnostic_errors(self):
        """Regression: g1/g2 validity tests used to be tallied under
        ``g3_exact_computations``; they belong to the measure-agnostic
        ``error_computations`` counter only."""
        rel = Relation.from_rows(
            [[i % 3, (i * 7) % 5, i % 2] for i in range(30)], ["A", "B", "C"]
        )
        for measure in ("g1", "g2"):
            stats = discover(
                rel, TaneConfig(epsilon=0.1, measure=measure)
            ).statistics
            assert stats.error_computations > 0
            assert stats.g3_exact_computations == 0
            assert stats.g3_bound_rejections == 0

    def test_elapsed_seconds_positive(self, figure1_relation):
        assert discover_fds(figure1_relation).statistics.elapsed_seconds > 0

    def test_memory_store_peak_tracked(self, figure1_relation):
        stats = discover_fds(figure1_relation).statistics
        assert stats.peak_resident_bytes > 0
        assert stats.store_spills == 0
        assert stats.store_loads == 0

    def test_disk_store_io_tracked(self, figure1_relation):
        config = TaneConfig(store="disk", store_options=(("resident_budget_bytes", 1), ("min_spill_bytes", 0)))
        stats = discover(figure1_relation, config).statistics
        assert stats.store_spills > 0
        assert stats.store_loads > 0

    def test_singleton_strategy_products_count(self, figure1_relation):
        executor = FromSingletonsExecutor(figure1_relation)
        stats = discover(figure1_relation, TaneConfig(executor=executor)).statistics
        # each level-ℓ set (ℓ >= 2) costs ℓ-1 products
        expected = sum(
            size * level for level, size in enumerate(stats.level_sizes[1:], start=1)
        )
        assert executor.products_computed == expected
