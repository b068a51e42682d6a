"""Unit tests for the PartitionManager: bootstrap, product
scheduling, reclamation, and the restore/crash paths — against a real
store but with no driver."""

import pytest

from repro import _bitset
from repro.model.relation import Relation
from repro.partition.cache import PartitionCache
from repro.partition.pure import PurePartition
from repro.partition.store import DiskPartitionStore, MemoryPartitionStore
from repro.partition.vectorized import CsrPartition, PartitionWorkspace
from repro.search.execution import SerialExecution
from repro.search.instruments import Counter, SimpleMetrics
from repro.search.partitions import PartitionManager


@pytest.fixture
def relation():
    rows = [
        [1, "a", "x"],
        [1, "a", "y"],
        [2, "b", "x"],
        [2, "b", "y"],
    ]
    return Relation.from_rows(rows, ["A", "B", "C"])


def _manager(relation, store=None, **kwargs):
    return PartitionManager(
        relation,
        CsrPartition,
        store if store is not None else MemoryPartitionStore(),
        PartitionWorkspace(relation.num_rows),
        SerialExecution(),
        **kwargs,
    )


class TestBootstrap:
    def test_returns_singleton_masks(self, relation):
        manager = _manager(relation)
        assert manager.bootstrap() == [1, 2, 4]

    def test_empty_partition_included_by_default(self, relation):
        manager = _manager(relation)
        manager.bootstrap()
        assert manager.get(0).num_classes == 1

    def test_ucc_mode_skips_empty_partition(self, relation):
        store = MemoryPartitionStore()
        manager = _manager(relation, store)
        manager.bootstrap(include_empty=False)
        with pytest.raises(KeyError):
            store.get(0)


class TestProductsAndAccess:
    def test_materialize_counts_and_stores(self, relation):
        counter = Counter()
        manager = _manager(relation, products_counter=counter)
        manager.bootstrap()
        next_level = manager.materialize([(3, 1, 2), (5, 1, 4)])
        assert next_level == [3, 5]
        assert counter.value == 2
        assert manager.get(3).num_rows == relation.num_rows

    def test_error_count_and_superkey(self, relation):
        manager = _manager(relation)
        manager.bootstrap()
        manager.materialize([(5, 1, 4)])  # {A, C} is a key here
        assert manager.is_superkey(5)
        assert not manager.is_superkey(1)
        assert manager.error_count(1) == 2  # two classes of two rows

    def test_from_singletons_strategy_is_serial(self, relation):
        counter = Counter()
        manager = _manager(
            relation,
            products_counter=counter,
            partition_strategy="from_singletons",
        )
        manager.bootstrap()
        next_level = manager.materialize([(7, 3, 4)])
        assert next_level == [7]
        # π_ABC from singletons costs two products (A·B then ·C).
        assert counter.value == 2


class TestRanksOnly:
    """``materialize(..., ranks_only=True)``: the last level's ranks,
    counted as products but never stored."""

    TRIPLES = [(3, 1, 2), (5, 1, 4), (6, 2, 4)]

    def _ranks(self, manager, ranks_only):
        manager.bootstrap()
        errors = []
        masks = manager.materialize(self.TRIPLES, errors, ranks_only=ranks_only)
        return masks, errors

    def test_counts_without_storing(self, relation):
        store, counter = MemoryPartitionStore(), Counter()
        manager = _manager(relation, store, products_counter=counter)
        masks, errors = self._ranks(manager, ranks_only=True)
        stored, stored_errors = self._ranks(_manager(relation), ranks_only=False)
        assert (masks, errors) == (stored, stored_errors) == ([3, 5, 6], [2, 0, 0])
        assert counter.value == 3
        assert len(store) == 4  # π_∅ and the singletons only
        for mask in masks:
            with pytest.raises(KeyError):
                store.get(mask)

    def test_stored_when_the_cache_keeps_the_level(self, relation):
        store = MemoryPartitionStore()
        manager = _manager(relation, store, cache=PartitionCache(), cache_levels=2)
        masks, errors = self._ranks(manager, ranks_only=True)
        assert errors == [manager.error_count(mask) for mask in masks]

    def test_stored_by_the_pure_engine(self, relation):
        store = MemoryPartitionStore()
        manager = PartitionManager(
            relation,
            PurePartition,
            store,
            PartitionWorkspace(relation.num_rows),
            SerialExecution(),
        )
        masks, errors = self._ranks(manager, ranks_only=True)
        assert errors == [manager.error_count(mask) for mask in masks]


class TestReclaimRestore:
    def test_reclaim_discards(self, relation):
        store = MemoryPartitionStore()
        manager = _manager(relation, store)
        manager.bootstrap()
        manager.reclaim([1, 2])
        with pytest.raises(KeyError):
            store.get(1)
        assert store.get(4) is not None

    def test_restore_recomputes_without_counting(self, relation):
        counter = Counter()
        manager = _manager(relation, products_counter=counter)
        manager.bootstrap()
        manager.restore(3)
        assert counter.value == 0
        assert manager.get(3).num_rows == relation.num_rows

    def test_restore_skips_singletons(self, relation):
        store = MemoryPartitionStore()
        manager = _manager(relation, store)
        manager.bootstrap()
        manager.reclaim([1])
        manager.restore(1)  # popcount 1: bootstrap owns it, no-op
        with pytest.raises(KeyError):
            store.get(1)


class TestCrashPathAndStats:
    def test_preserve_spill_files_flags_disk_store(self, relation, tmp_path):
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        try:
            manager = _manager(relation, store)
            manager.preserve_spill_files()
            assert store.preserve_spill_files
        finally:
            store.preserve_spill_files = False
            store.close()

    def test_preserve_spill_files_memory_noop(self, relation):
        _manager(relation).preserve_spill_files()  # must not raise

    def test_collect_stats_publishes_gauges(self, relation, tmp_path):
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        try:
            manager = _manager(relation, store)
            manager.bootstrap()
            metrics = SimpleMetrics()
            manager.collect_stats(metrics)
            assert metrics.gauge_value("store.spill_count") >= 0
            assert metrics.gauge_value("store.peak_resident_bytes") > 0
        finally:
            store.close()
