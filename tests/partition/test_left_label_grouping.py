"""Left-label grouping of the probe product kernels, and int32 buffers.

The probe kernel (the pooled kernel of ``batched_products``, which
``CsrPartition.product`` runs on one task) groups a product's
surviving rows with one stable sort on the left label ``lx``
alone, relying on the right label ``ly`` never decreasing along them.
These tests compare that grouping with the reference it replaces: a
stable argsort of the pair keys ``lx * classes_y + ly``.  They also pin
the engine's single index dtype and the checks made before narrowing a
wider buffer to it.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.partition.vectorized as vectorized
from repro.exceptions import DataError
from repro.partition.vectorized import (
    CsrPartition,
    PartitionWorkspace,
    batched_error_counts,
    batched_products,
)
from tests.partition.conftest import assert_matches_reference, reference_product


def reversed_classes(partition):
    """The partition with each class's rows reversed (non-ascending)."""
    offsets = partition.offsets
    return CsrPartition(
        np.concatenate(
            [partition.indices[a:b][::-1] for a, b in zip(offsets[:-1], offsets[1:])]
            or [np.empty(0, dtype=np.int32)]
        ),
        offsets.copy(),
        partition.num_rows,
    )


@st.composite
def factor_pairs(draw):
    num_rows = draw(st.integers(2, 160))
    columns = [
        draw(
            st.lists(
                st.integers(0, draw(st.integers(0, 40))), min_size=num_rows, max_size=num_rows
            )
        )
        for _ in range(2)
    ]
    x, y = (CsrPartition.from_column(np.array(c, dtype=np.int64)) for c in columns)
    if draw(st.booleans()):
        y = reversed_classes(y)
    return x, y


GROUPING_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


class TestMatchesPairKeySort:
    @given(pair=factor_pairs())
    @GROUPING_SETTINGS
    def test_single_product(self, pair):
        x, y = pair
        assert_matches_reference(x.product(y), x, y)

    @given(pairs=st.lists(factor_pairs(), min_size=1, max_size=3))
    @GROUPING_SETTINGS
    def test_pooled_solo_tasks_and_sub_batches(self, pairs):
        # Tasks are over different relations here, so each call holds
        # one task, grouped alone.
        for x, y in pairs:
            [observed] = batched_products([(x, y)])
            assert_matches_reference(observed, x, y)

    @given(
        columns=st.lists(
            st.lists(st.integers(0, 6), min_size=60, max_size=60), min_size=2, max_size=5
        ),
        reverse=st.booleans(),
    )
    @GROUPING_SETTINGS
    def test_sub_batches_of_many_tasks(self, columns, reverse):
        # One relation, every ordered pair in one call: tasks share
        # left factors, so each scatter serves several tasks.
        factors = [CsrPartition.from_column(np.array(c, dtype=np.int64)) for c in columns]
        rights = [reversed_classes(f) for f in factors] if reverse else factors
        pairs = [(x, y) for x in factors for y in rights]
        workspace = PartitionWorkspace(60)
        for (x, y), observed in zip(pairs, batched_products(pairs, workspace)):
            assert_matches_reference(observed, x, y)
        assert (workspace.probe == -1).all()

    @given(pairs=st.lists(factor_pairs(), min_size=1, max_size=3))
    @GROUPING_SETTINGS
    def test_count_mode(self, pairs):
        for x, y in pairs:
            assert batched_error_counts([(x, y)]) == [reference_product(x, y)[2]]

    def test_zero_survivors(self):
        # x's only class and y's only class share no row.
        x = CsrPartition.from_classes([[0, 1]], 6)
        y = CsrPartition.from_classes([[2, 3, 4]], 6)
        assert x.product(y).num_classes == 0
        [observed] = batched_products([(x, y), (y, x)])[:1]
        assert observed.num_classes == 0 and observed.indices.dtype == np.int32
        assert batched_error_counts([(x, y), (y, x)]) == [0, 0]

    def test_survivors_that_are_all_singletons(self):
        # Every surviving row lands in its own (lx, ly) group.
        x = CsrPartition.from_classes([[0, 1], [2, 3]], 4)
        y = CsrPartition.from_classes([[0, 2], [1, 3]], 4)
        assert x.product(y).num_classes == 0
        assert batched_error_counts([(x, y)]) == [0]


def tall_factor(codes, reverse=False):
    """A partition of ``codes`` that carries no column, so its products
    take the probe path."""
    partition = CsrPartition.from_column(np.asarray(codes, dtype=np.int64)).without_column()
    return reversed_classes(partition) if reverse else partition


class TestTwoPassRadix:
    ROWS = 131_076  # 65,538 left classes of two rows: past one 16-bit digit

    def test_stable_order_matches_argsort(self):
        rng = np.random.default_rng(0)
        cases = [
            (keyspace, rng.integers(0, keyspace, size=5_000, dtype=np.int64))
            for keyspace in (1, 2, 1 << 16, (1 << 16) + 1, 1 << 20, (1 << 32) + 7)
        ]
        # Sizes 0, 1 and 2, with keys at the top of the key space.
        for size in (0, 1, 2):
            cases += [(1, np.zeros(size, dtype=np.int64)), (7, np.full(size, 6))]
        # 5,000 positions take 13 bits; the key bits make up the rest.
        layouts = {31: np.uint32, 32: np.uint32, 33: np.uint64, 63: np.uint64, 64: np.uint64}
        for width in (31, 32, 33, 63, 64, 65):
            keyspace = 1 << (width - 13)
            keys = rng.integers(0, keyspace, size=5_000, dtype=np.int64)
            keys[rng.integers(0, keys.size, size=50)] = keyspace - 1
            layout = vectorized._word_layout(keyspace, keys.size)
            if width in layouts:
                assert layout == (np.dtype(layouts[width]), 13)
            else:
                assert layout is None  # the stable-argsort fallback
            cases.append((keyspace, keys))
        for keyspace, keys in cases:
            expected = np.argsort(keys, kind="stable")
            order, sorted_keys = vectorized._stable_sort(keys, keyspace)
            assert np.array_equal(order, expected)
            assert np.array_equal(sorted_keys, keys[expected])

    def test_solo_tasks_of_a_tall_relation(self):
        # 12,000 rows, nearly all surviving, with the kernel's own
        # thresholds.
        rng = np.random.default_rng(7)
        num_rows = 12_000
        x = tall_factor(rng.integers(0, 300, size=num_rows))
        for reverse in (False, True):
            y = tall_factor(rng.integers(0, 40, size=num_rows), reverse)
            assert_matches_reference(x.product(y), x, y)
            [pooled] = batched_products([(x, y)])
            assert_matches_reference(pooled, x, y)
            assert batched_error_counts([(x, y)]) == [reference_product(x, y)[2]]

    def test_product_with_more_than_2_16_left_classes(self):
        x = CsrPartition.from_column(np.arange(self.ROWS) // 2)
        assert x.num_classes > 1 << 16
        # y splits the pairs that straddle a multiple of 3 (not the
        # last one), and reads its rows in reverse inside each class.
        y = reversed_classes(CsrPartition.from_column((np.arange(self.ROWS) // 3) % 3))
        assert_matches_reference(x.product(y), x, y)
        [pooled] = batched_products([(x, y)])
        assert_matches_reference(pooled, x, y)
        assert batched_error_counts([(x, y)]) == [reference_product(x, y)[2]]


class TestNoLabelCache:
    def test_products_leave_the_right_factor_as_it_was(self):
        # One task where every row survives and one with a left factor
        # of 200 stripped rows, over one right factor.
        rng = np.random.default_rng(3)
        num_rows = 20_000
        y = tall_factor(rng.integers(0, 50, size=num_rows))
        solo = tall_factor(rng.integers(0, 100, size=num_rows))
        pooled = tall_factor(np.concatenate([np.arange(100).repeat(2), np.arange(200, num_rows)]))
        before = y.nbytes()
        for x in (solo, pooled):
            [product] = batched_products([(x, y)])
            assert_matches_reference(product, x, y)
            assert getattr(y, "_label_cache", None) is None
            assert y.nbytes() == before


@pytest.mark.multicore
def test_pool_threads_match_the_pair_key_sort(monkeypatch):
    # Three left factors, one of them short (few survivors), times two
    # right factors of 40,000 rows: past _THREAD_MIN_ROWS, so the
    # left-factor groups run on the kernel's pool threads.
    threads = set()
    left_factor_tasks = vectorized._left_factor_tasks

    def recording(*args):
        threads.add(threading.current_thread().name)
        return left_factor_tasks(*args)

    monkeypatch.setattr(vectorized, "_left_factor_tasks", recording)
    rng = np.random.default_rng(11)
    num_rows = 40_000
    lefts = [
        tall_factor(rng.integers(0, 500, size=num_rows)),
        tall_factor(rng.integers(0, 30, size=num_rows), reverse=True),
        tall_factor(np.concatenate([np.arange(500).repeat(2), np.arange(1_000, num_rows)])),
    ]
    rights = [
        tall_factor(rng.integers(0, 60, size=num_rows)),
        tall_factor(rng.integers(0, 7, size=num_rows), reverse=True),
    ]
    pairs = [(x, y) for x in lefts for y in rights]
    assert sum(y.stripped_size for _x, y in pairs) >= vectorized._THREAD_MIN_ROWS
    workspace = PartitionWorkspace(num_rows)
    for (x, y), observed in zip(pairs, batched_products(pairs, workspace)):
        assert_matches_reference(observed, x, y)
    assert batched_error_counts(pairs, workspace) == [
        reference_product(x, y)[2] for x, y in pairs
    ]
    assert any(name.startswith("repro-kernel") for name in threads)
    assert (workspace.probe == -1).all()


class TestInt32Buffers:
    def test_every_builder_and_kernel_emits_int32(self):
        rng = np.random.default_rng(4)
        short = [CsrPartition.from_column(rng.integers(0, 4, size=50)) for _ in range(2)]
        tall = [CsrPartition.from_column(rng.integers(0, 4, size=3000)) for _ in range(2)]
        built = [
            *short,
            CsrPartition.from_classes([[3, 1], [0, 2]], 5),
            CsrPartition.empty(5),
            CsrPartition.single_class(5),
            short[0].product(short[1]),  # column-keyed, on one task
            tall[0].product(tall[1].without_column()),  # left-label grouping
            *batched_products([(tall[0], tall[1])]),  # column-keyed
        ]
        for partition in built:
            assert partition.indices.dtype == np.int32
            assert partition.offsets.dtype == np.int32
        assert tall[0]._labels().dtype == np.int32
        assert PartitionWorkspace(10).probe.dtype == np.int32

    def test_int32_buffers_are_wrapped_without_copying(self):
        indices = np.array([0, 1, 2, 3], dtype=np.int32)
        offsets = np.array([0, 2, 4], dtype=np.int32)
        partition = CsrPartition(indices, offsets, 4)
        assert partition.indices is indices
        assert partition.offsets is offsets


class TestCheckBeforeNarrowing:
    @pytest.mark.parametrize("row", [2**32 + 5, -1])
    def test_constructor_rejects_an_id_a_cast_would_change(self, row):
        indices = np.array([0, row], dtype=np.int64)
        with pytest.raises(DataError, match="row ids"):
            CsrPartition(indices, np.array([0, 2]), 10)

    def test_constructor_rejects_an_id_past_the_relation(self):
        with pytest.raises(DataError, match="row ids"):
            CsrPartition(np.array([0, 10], dtype=np.int64), np.array([0, 2]), 10)

    def test_constructor_rejects_offsets_a_cast_would_change(self):
        with pytest.raises(DataError, match="offsets"):
            CsrPartition(np.array([0, 1]), np.array([0, 2**32 + 2, 2], dtype=np.int64), 10)

    def test_relations_of_2_31_rows_are_refused(self):
        with pytest.raises(DataError, match="rows"):
            CsrPartition.empty(2**31)
        with pytest.raises(DataError, match="rows"):
            CsrPartition(np.array([0, 1], dtype=np.int64), np.array([0, 2]), 2**31)
        with pytest.raises(DataError, match="rows"):
            PartitionWorkspace(2**31)

    def test_widest_supported_relation_is_accepted(self):
        partition = CsrPartition(
            np.array([0, 2**31 - 2], dtype=np.int64), np.array([0, 2]), 2**31 - 1
        )
        assert partition.indices.tolist() == [0, 2**31 - 2]
