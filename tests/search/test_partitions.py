"""Unit tests for the PartitionManager: bootstrap, product
scheduling, reclamation, and the restore/crash paths — against a real
store but with no driver."""

import numpy as np
import pytest

from repro import _bitset
from repro.bench.workloads import FromSingletonsExecutor
from repro.core.lattice import generate_next_level_arrays
from repro.core.tane import TaneConfig, discover
from repro.model.relation import Relation
from repro.partition.pure import PurePartition
from repro.partition import vectorized
from repro.partition.store import DiskPartitionStore, MemoryPartitionStore
from repro.partition.vectorized import CsrPartition, PartitionWorkspace
from repro.search.execution import SerialExecution
from repro.search.instruments import Counter, SimpleMetrics
from repro.search.measures import ValidityCriteria, evaluate_validity
from repro.search.partitions import PartitionManager

from ..conftest import copies_relation, tracer_calling


@pytest.fixture
def relation():
    rows = [
        [1, "a", "x"],
        [1, "a", "y"],
        [2, "b", "x"],
        [2, "b", "y"],
    ]
    return Relation.from_rows(rows, ["A", "B", "C"])


def _manager(relation, store=None, executor=None, **kwargs):
    return PartitionManager(
        relation,
        CsrPartition,
        store if store is not None else MemoryPartitionStore(),
        PartitionWorkspace(relation.num_rows),
        executor if executor is not None else SerialExecution(),
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
        assert manager.error_counts([5])[0] == 0
        assert manager.error_counts([1])[0] == 2  # two classes of two rows

    def test_from_singletons_strategy_is_serial(self, relation):
        counter = Counter()
        executor = FromSingletonsExecutor(relation)
        manager = _manager(relation, executor=executor, products_counter=counter)
        manager.bootstrap()
        next_level = manager.materialize([(7, 3, 4)])
        assert next_level == [7]
        assert manager.get(7).num_classes == 0  # ABC is a key here
        # π_ABC from singletons costs two products (A·B then ·C); the
        # manager still counts one product per candidate.
        assert (executor.products_computed, counter.value) == (2, 1)


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
        assert errors == manager.error_counts(masks).tolist()


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
        manager.restore_level([3])
        assert counter.value == 0
        assert manager.get(3).num_rows == relation.num_rows

    def test_restore_skips_singletons(self, relation):
        store = MemoryPartitionStore()
        manager = _manager(relation, store)
        manager.bootstrap()
        manager.reclaim([1])
        manager.restore_level([1])  # popcount 1: bootstrap owns it, no-op
        with pytest.raises(KeyError):
            store.get(1)

    @pytest.mark.parametrize("engine", [CsrPartition, PurePartition])
    def test_per_mask_level_matches_chain_products(self, engine):
        # 2,250 rows: past the dense kernel, so the level is per-mask
        # and its rebuild reaches the pooled kernel.
        rng = np.random.default_rng(12)
        columns = [np.tile(rng.integers(0, 4, size=50), 45) for _ in range(5)]
        tall = Relation.from_codes(columns, [f"c{i}" for i in range(5)])
        assert tall.num_rows > vectorized._DENSE_MAX_ROWS
        counter = Counter()
        manager = PartitionManager(
            tall,
            engine,
            MemoryPartitionStore(),
            PartitionWorkspace(tall.num_rows),
            SerialExecution(),
            products_counter=counter,
        )
        manager.bootstrap(levels=True)
        assert not manager.level_blocks
        level = [mask for mask in range(32) if _bitset.popcount(mask) == 3]
        manager.restore_level(level)
        assert counter.value == 0
        singletons = [manager.get(_bitset.bit(i)) for i in range(5)]
        for mask in level:
            first, *rest = _bitset.to_indices(mask)
            expected = singletons[first]
            for index in rest:
                expected = expected.product(singletons[index])
            restored = manager.get(mask)
            if engine is CsrPartition:
                assert restored.indices.tobytes() == expected.indices.tobytes()
                assert restored.offsets.tobytes() == expected.offsets.tobytes()
            else:
                assert sorted(restored.classes()) == sorted(expected.classes())


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


def _entry_size(key):
    """Attribute count of a store key's sets (a block is keyed -size)."""
    return -key if key < 0 else _bitset.popcount(key)


class _Counting:
    """Store mixin counting every write once counting is switched on,
    and watching how many levels the store holds: at the first put of
    a level ℓ+1 entry, every held set of a size from 2 to ℓ−1 is
    recorded in ``stale`` (π_∅ and the singletons are the bootstrap's)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.counting = False
        self.writes = []
        self.held = set()
        self.sizes = set()
        self.stale = []

    def _count(self, name, key):
        if self.counting:
            self.writes.append((name, key))

    def put(self, key, entry):
        self._count("put", key)
        size = _entry_size(key)
        if size not in self.sizes:
            self.sizes.add(size)
            self.stale += [k for k in sorted(self.held) if 2 <= _entry_size(k) <= size - 2]
        super().put(key, entry)
        self.held.add(key)

    def discard(self, key):
        self._count("discard", key)
        super().discard(key)
        self.held.discard(key)


class CountingStore(_Counting, MemoryPartitionStore):
    """A memory store counting its writes and levels (see _Counting)."""


class CountingDiskStore(_Counting, DiskPartitionStore):
    """A disk store counting its writes and levels; held entries may
    be resident or spilled."""


class TestLevelStorage:
    """A short relation's levelwise walk stores a level at a time."""

    def test_store_writes_are_bounded_per_level(self):
        rng = np.random.default_rng(5)
        relation = Relation.from_codes(
            [rng.integers(0, domain, size=300) for domain in (2, 3, 4, 5, 6, 7, 9, 40)],
            [f"c{i}" for i in range(8)],
        )
        store = CountingStore()

        def after_bootstrap(span):
            # The first level opens once π_∅ and the singletons are in.
            if span.name == "level" and span.end is None:
                store.counting = True

        result = discover(
            relation, TaneConfig(store=store, tracer=tracer_calling(after_bootstrap))
        )
        levels = len(result.statistics.level_sizes)
        products = result.statistics.partition_products
        assert levels >= 4 and products > 20 * levels
        # Per level at most one block written (key -level) and one level
        # (its block, or π_∅ after level 1) reclaimed: never one write
        # per partition.
        assert all(key < 0 for name, key in store.writes if name == "put")
        assert len(store.writes) <= 2 * levels

    @staticmethod
    def _short_relation():
        rng = np.random.default_rng(9)
        return Relation.from_codes(
            [rng.integers(0, domain, size=200) for domain in (3, 5, 8)], ["a", "b", "c"]
        )

    def test_measuring_a_block_row_leaves_the_store_bytes(self):
        relation = self._short_relation()
        store = MemoryPartitionStore()
        manager = _manager(relation, store)
        level = manager.bootstrap(levels=True)
        pairs = manager.materialize(generate_next_level_arrays(np.array(level)))
        resident, peak = store._resident_bytes, store.peak_resident_bytes
        criteria = ValidityCriteria(
            epsilon=1.0,
            epsilon_count=relation.num_rows,
            measure="g3",
            use_g3_bounds=False,
            num_rows=relation.num_rows,
        )
        fetch = manager.batch_fetch()
        for whole in pairs:
            for _index, lhs in _bitset.iter_subsets_one_smaller(whole):
                from_rows = evaluate_validity(fetch(lhs), fetch(whole), criteria)
                from_csr = evaluate_validity(
                    _chained(relation, lhs), _chained(relation, whole), criteria
                )
                assert from_rows == from_csr and from_rows.error_computed
        assert (store._resident_bytes, store.peak_resident_bytes) == (resident, peak)

    @pytest.mark.parametrize("max_lhs_size", [2, None])
    def test_a_budgeted_disk_store_loads_each_block_a_few_times(self, tmp_path, max_lhs_size):
        relation = _deep_relation(200, (2, 3, 3, 4, 5, 6, 8))
        config = dict(epsilon=0.05, max_lhs_size=max_lhs_size)
        expected = discover(relation, TaneConfig(**config))
        # Every block above the default pinning size spills at once.
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path)
        try:
            result = discover(relation, TaneConfig(store=store, **config))
        finally:
            store.close()
        assert result.dependencies == expected.dependencies
        levels = len(result.statistics.level_sizes)
        # Each level loads its blocks for the validity batch and for the
        # next level's products, not once per test.
        assert store.load_count <= 3 * levels
        assert result.statistics.error_computations > 3 * store.load_count


def _chained(relation, mask):
    """``π_mask`` as a chain of CSR products of its columns."""
    first, *rest = _bitset.to_indices(mask)
    product = CsrPartition.from_column(relation.column_codes(first))
    for index in rest:
        product = product.product(CsrPartition.from_column(relation.column_codes(index)))
    return product


def _deep_relation(rows, domains):
    rng = np.random.default_rng(3)
    return Relation.from_codes(
        [rng.integers(0, domain, size=rows) for domain in domains],
        [f"c{i}" for i in range(len(domains))],
    )


class TestTwoResidentLevels:
    """A levelwise walk holds at most two adjacent levels: level ℓ−1 is
    reclaimed before the first partition of level ℓ+1 is stored."""

    @staticmethod
    def _walk(relation, store, **config):
        try:
            result = discover(relation, TaneConfig(store=store, **config))
        finally:
            store.close()
        assert len(result.statistics.level_sizes) >= 4
        assert max(store.sizes) >= 4
        return store.stale

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    @pytest.mark.parametrize("kind", ["memory", "disk"])
    @pytest.mark.parametrize(
        "rows", [300, 2500], ids=["block form", "per-mask form"]
    )
    def test_two_levels(self, tmp_path, rows, kind, epsilon):
        relation = _deep_relation(rows, (2, 3, 3, 4, 5, 6))
        store = (
            CountingStore()
            if kind == "memory"
            else CountingDiskStore(
                resident_budget_bytes=4096, directory=tmp_path, min_spill_bytes=0
            )
        )
        assert self._walk(relation, store, epsilon=epsilon) == []

    def test_wide_approximate(self):
        # Over 63 attributes the levels hold object masks and each mask
        # keeps its own CSR partition (no level blocks); the validity
        # tests read level ℓ−1 partitions, so the reclaim must follow them.
        relation = copies_relation()
        assert relation.num_attributes > 63
        assert self._walk(relation, CountingStore(), epsilon=0.05) == []
