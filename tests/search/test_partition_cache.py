"""The cross-run partition cache integrated into the TANE driver.

A cached run must return exactly the results of an uncached run —
the cache only changes *where* low-level partitions come from.  The
counters make the mechanism observable: the first run over a relation
misses and populates, the second hits and skips products; a different
relation (or partition engine) never sees foreign entries.
"""

import numpy as np
import pytest

from repro.core.tane import TaneConfig, discover
from repro.model.relation import Relation
import repro.partition.vectorized as vectorized
from repro.partition.cache import PartitionCache, reset_shared_cache
from repro.partition.vectorized import LevelBlock
from repro.search.execution import SerialExecution


@pytest.fixture
def relation() -> Relation:
    rng = np.random.default_rng(29)
    columns = [rng.integers(0, 5, size=300).astype(np.int64) for _ in range(5)]
    return Relation.from_codes(columns, [f"c{i}" for i in range(5)])


def assert_same_result(observed, expected):
    assert observed.dependencies == expected.dependencies
    assert observed.keys == expected.keys
    assert sorted(
        (fd.lhs, fd.rhs, fd.error) for fd in observed.dependencies
    ) == sorted((fd.lhs, fd.rhs, fd.error) for fd in expected.dependencies)


class TestCachedRunsAreEquivalent:
    def test_cold_and_warm_runs_match_uncached(self, relation):
        cache = PartitionCache()
        baseline = discover(relation, TaneConfig(epsilon=0.1))
        cold = discover(relation, TaneConfig(epsilon=0.1, partition_cache=cache))
        warm = discover(relation, TaneConfig(epsilon=0.1, partition_cache=cache))
        assert_same_result(cold, baseline)
        assert_same_result(warm, baseline)

    def test_counters_show_misses_then_hits(self, relation):
        cache = PartitionCache()
        config = TaneConfig(epsilon=0.1, partition_cache=cache)
        cold = discover(relation, config).statistics
        warm = discover(relation, config).statistics
        assert cold.cache_hits == 0
        assert cold.cache_misses > 0
        assert warm.cache_hits == cold.cache_misses
        assert warm.cache_misses == 0
        # Hits replace products: the warm run computes strictly fewer.
        assert warm.partition_products < cold.partition_products

    def test_cache_off_by_default_keeps_golden_counters(self, relation):
        cache = PartitionCache()
        discover(relation, TaneConfig(epsilon=0.1, partition_cache=cache))
        default_run = discover(relation, TaneConfig(epsilon=0.1)).statistics
        assert default_run.cache_hits == 0
        assert default_run.cache_misses == 0

    def test_cache_levels_bound_what_is_cached(self, relation):
        shallow = PartitionCache()
        deep = PartitionCache()
        discover(
            relation,
            TaneConfig(epsilon=0.1, partition_cache=shallow, partition_cache_levels=1),
        )
        discover(
            relation,
            TaneConfig(epsilon=0.1, partition_cache=deep, partition_cache_levels=3),
        )
        assert len(shallow) == relation.num_attributes, "levels=1: singletons only"
        assert len(deep) > len(shallow)


class TestCacheIsolation:
    def test_different_relation_never_hits(self, relation):
        cache = PartitionCache()
        config_kwargs = dict(epsilon=0.1, partition_cache=cache)
        discover(relation, TaneConfig(**config_kwargs))
        rng = np.random.default_rng(31)
        other = Relation.from_codes(
            [rng.integers(0, 5, size=300).astype(np.int64) for _ in range(5)],
            [f"c{i}" for i in range(5)],
        )
        stats = discover(other, TaneConfig(**config_kwargs)).statistics
        assert stats.cache_hits == 0

    def test_engines_do_not_share_entries(self, relation):
        # CSR and pure partitions have incompatible in-memory layouts;
        # the fingerprint key includes the partition class, so a pure
        # run after a vectorized run misses (and stays correct).
        cache = PartitionCache()
        vectorized = discover(
            relation, TaneConfig(epsilon=0.1, partition_cache=cache)
        )
        pure = discover(
            relation,
            TaneConfig(epsilon=0.1, partition_cache=cache, engine="pure"),
        )
        assert pure.statistics.cache_hits == 0
        assert_same_result(pure, vectorized)

    def test_shared_cache_round_trip(self, relation):
        reset_shared_cache()
        try:
            config = TaneConfig(epsilon=0.1, partition_cache="shared")
            discover(relation, config)
            warm = discover(relation, config).statistics
            assert warm.cache_hits > 0
        finally:
            reset_shared_cache()


class PerTripleExecutor(SerialExecution):
    """The one-product-at-a-time loop the batched kernels must match:
    per-mask products, and a level block's products built one
    candidate at a time from the factor block's CSR views."""

    def __init__(self):
        self.level_calls = 0

    def products(self, triples, fetch, workspace):
        for candidate, factor_x, factor_y in triples:
            yield candidate, fetch(factor_x).product(fetch(factor_y), workspace)

    def level_products(self, factors, candidates, factor_x, factor_y, *, ranks_only=False):
        self.level_calls += 1
        views = dict(zip(factors.masks.tolist(), factors.partitions()))
        products = [
            views[x].product(views[y])
            for x, y in zip(factor_x.tolist(), factor_y.tolist())
        ]
        block = LevelBlock.from_partitions(candidates, products, factors.num_rows)
        if ranks_only:
            block = LevelBlock(block.masks, None, None, block.errors, block.num_rows)
        return block


class TestKernelParity:
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_batched_and_triple_kernels_agree(self, relation, epsilon):
        # Every product of this short relation stays under the
        # dict-probe threshold, so the per-triple run never reaches the
        # dense kernel the level blocks use.
        assert 2 * relation.num_rows <= vectorized._SMALL_PRODUCT_THRESHOLD
        executor = PerTripleExecutor()
        batched = discover(relation, TaneConfig(epsilon=epsilon))
        triple = discover(relation, TaneConfig(epsilon=epsilon, executor=executor))
        assert executor.level_calls > 0
        assert_same_result(triple, batched)
        bs, ts = batched.statistics, triple.statistics
        assert bs.level_sizes == ts.level_sizes
        assert bs.partition_products == ts.partition_products
        assert bs.validity_tests == ts.validity_tests
