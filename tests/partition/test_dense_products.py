"""The dense label-matrix kernel of ``batched_products``.

Relations of at most ``_DENSE_MAX_ROWS`` rows take the dense kernel:
one label matrix per chunk of tasks and one row-wise sort.  Its results
must be byte-identical to per-triple :meth:`CsrPartition.product`, own
their buffers, and keep the error contract of the other kernels.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.partition.vectorized as vectorized
from repro.exceptions import DataError
from repro.partition.pure import PurePartition
from repro.partition.vectorized import CsrPartition, PartitionWorkspace, batched_products


def assert_identical(observed, expected):
    assert observed.indices.dtype == np.int64
    assert observed.offsets.dtype == np.int64
    assert np.array_equal(observed.indices, expected.indices)
    assert np.array_equal(observed.offsets, expected.offsets)
    assert observed.num_rows == expected.num_rows
    assert observed.error_count == expected.error_count


def assert_matches_per_triple(pairs, workspace=None):
    results = batched_products(pairs, workspace)
    assert len(results) == len(pairs)
    for (x, y), observed in zip(pairs, results):
        assert_identical(observed, x.product(y))
        # Owned buffers: no views into the chunk arrays.
        assert observed.indices.base is None
        assert observed.offsets.base is None
    return results


@pytest.fixture
def dense_calls(monkeypatch):
    """Record the task count of every dense chunk."""
    calls = []
    original = vectorized._dense_products

    def recording(tasks, *args):
        calls.append(len(tasks))
        return original(tasks, *args)

    monkeypatch.setattr(vectorized, "_dense_products", recording)
    return calls


@pytest.fixture
def key_dtypes(monkeypatch):
    """Record the key dtype of every dense chunk."""
    dtypes = []
    original = vectorized._narrowest_key_dtype

    def recording(keyspace):
        dtype = original(keyspace)
        dtypes.append(dtype)
        return dtype

    monkeypatch.setattr(vectorized, "_narrowest_key_dtype", recording)
    return dtypes


@st.composite
def levels(draw):
    """A relation's level-1 and level-2 partitions, and a level of tasks
    over them that shares factors between tasks."""
    num_rows = draw(st.integers(min_value=0, max_value=48))
    width = draw(st.integers(min_value=1, max_value=4))
    factors = []
    for _ in range(width):
        domain = draw(st.integers(min_value=1, max_value=6))
        codes = draw(
            st.lists(
                st.integers(min_value=0, max_value=domain - 1),
                min_size=num_rows,
                max_size=num_rows,
            )
        )
        factors.append(CsrPartition.from_column(np.array(codes, dtype=np.int64), num_rows))
    factors += [x.product(y) for x in factors for y in factors if x is not y][:4]
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(factors) - 1),
                st.integers(min_value=0, max_value=len(factors) - 1),
            ),
            min_size=1,
            max_size=24,
        )
    )
    return [(factors[i], factors[j]) for i, j in picks]


class TestDenseMatchesPerTriple:
    @given(pairs=levels())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_levels_with_shared_factors(self, pairs):
        workspace = PartitionWorkspace(pairs[0][0].num_rows)
        assert_matches_per_triple(pairs, workspace)
        assert (workspace.probe == -1).all()

    def test_short_relations_take_the_dense_kernel(self, dense_calls):
        rng = np.random.default_rng(1)
        factors = [CsrPartition.from_column(rng.integers(0, 5, size=120)) for _ in range(4)]
        assert_matches_per_triple([(x, y) for x in factors for y in factors])
        assert dense_calls == [16]

    def test_tall_relations_take_the_pooled_kernel(self, dense_calls):
        rows = vectorized._DENSE_MAX_ROWS + 1
        rng = np.random.default_rng(2)
        factors = [CsrPartition.from_column(rng.integers(0, 9, size=rows)) for _ in range(3)]
        assert_matches_per_triple([(x, y) for x in factors for y in factors])
        assert dense_calls == []

    def test_largest_dense_relation(self, dense_calls):
        rows = vectorized._DENSE_MAX_ROWS
        rng = np.random.default_rng(3)
        factors = [
            CsrPartition.from_column(rng.integers(0, domain, size=rows))
            for domain in (2, 40, rows // 2)
        ]
        assert_matches_per_triple([(x, y) for x in factors for y in factors])
        assert dense_calls == [9]


class TestEdgeCases:
    @pytest.mark.parametrize("num_rows", [0, 1, 2])
    def test_tiny_relations(self, num_rows):
        partitions = [
            CsrPartition.empty(num_rows),
            CsrPartition.single_class(num_rows),
            CsrPartition.from_column(np.zeros(num_rows, dtype=np.int64)),
            CsrPartition.from_column(np.arange(num_rows, dtype=np.int64)),
            # Raw buffers may hold an empty class: a partition with a
            # class but no stripped rows, even over zero rows.
            CsrPartition(np.empty(0, dtype=np.int64), np.zeros(2, dtype=np.int64), num_rows),
        ]
        assert_matches_per_triple([(x, y) for x in partitions for y in partitions])

    def test_empty_and_single_class_factors(self):
        rng = np.random.default_rng(4)
        num_rows = 50
        ordinary = CsrPartition.from_column(rng.integers(0, 4, size=num_rows))
        empty = CsrPartition.empty(num_rows)
        single = CsrPartition.single_class(num_rows)
        pairs = [
            (empty, ordinary), (ordinary, empty), (empty, empty),
            (single, ordinary), (ordinary, single), (single, single),
        ]
        assert_matches_per_triple(pairs)

    def test_chunk_whose_outputs_are_all_empty(self, dense_calls):
        # {0,1},{2,3} times {0,2},{1,3}: every pair class is a singleton.
        x = CsrPartition.from_classes([[0, 1], [2, 3]], 8)
        y = CsrPartition.from_classes([[0, 2], [1, 3]], 8)
        results = assert_matches_per_triple([(x, y), (y, x)])
        assert dense_calls == [2]
        assert all(r.num_classes == 0 and r.stripped_size == 0 for r in results)

    def test_int16_keys(self, key_dtypes):
        rng = np.random.default_rng(5)
        x, y = (CsrPartition.from_column(rng.integers(0, 3, size=40)) for _ in range(2))
        assert_matches_per_triple([(x, y)])
        assert key_dtypes == [np.dtype(np.int16)]

    def test_pair_overflowing_int16_takes_int32_keys(self, key_dtypes):
        # 200 x 200 classes: classes_x * classes_y alone exceeds int16.
        num_rows = 400
        x = CsrPartition.from_column(np.arange(num_rows) // 2)
        y = CsrPartition.from_column(np.arange(num_rows) % 200)
        assert x.num_classes * y.num_classes > np.iinfo(np.int16).max
        assert_matches_per_triple([(x, y), (y, x), (x, x)])
        assert key_dtypes == [np.dtype(np.int32)]

    def test_tagged_keys_overflowing_int32_take_int64(self, key_dtypes):
        num_rows = vectorized._DENSE_MAX_ROWS
        x = CsrPartition.from_column(np.arange(num_rows) // 2)
        y = CsrPartition.from_column(np.arange(num_rows) % (num_rows // 2))
        assert_matches_per_triple([(x, y), (x, x)])
        assert key_dtypes == [np.dtype(np.int64)]

    def test_chunks_split_at_the_element_budget(self, monkeypatch, dense_calls):
        num_rows = 60
        monkeypatch.setattr(vectorized, "_DENSE_ELEMENT_BUDGET", 4 * num_rows)
        rng = np.random.default_rng(6)
        factors = [CsrPartition.from_column(rng.integers(0, 4, size=num_rows)) for _ in range(4)]
        pairs = [(x, y) for x in factors for y in factors]
        assert_matches_per_triple(pairs)
        assert dense_calls == [4, 4, 4, 4]

    def test_budget_below_one_row_still_progresses(self, monkeypatch, dense_calls):
        monkeypatch.setattr(vectorized, "_DENSE_ELEMENT_BUDGET", 1)
        rng = np.random.default_rng(7)
        factors = [CsrPartition.from_column(rng.integers(0, 3, size=30)) for _ in range(2)]
        assert_matches_per_triple([(x, y) for x in factors for y in factors])
        assert dense_calls == [1, 1, 1, 1]

    def test_results_do_not_share_buffers(self):
        rng = np.random.default_rng(8)
        factors = [CsrPartition.from_column(rng.integers(0, 3, size=30)) for _ in range(3)]
        results = batched_products([(x, y) for x in factors for y in factors])
        for i, a in enumerate(results):
            for b in results[i + 1:]:
                assert not np.shares_memory(a.indices, b.indices)
                assert not np.shares_memory(a.offsets, b.offsets)


class TestErrorContract:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.x = CsrPartition.from_column(rng.integers(0, 4, size=40))
        self.y = CsrPartition.from_column(rng.integers(0, 4, size=40))
        self.workspace = PartitionWorkspace(40)

    def test_non_csr_factor_raises_type_error(self):
        pure = PurePartition.from_column(list(range(40)))
        with pytest.raises(TypeError):
            batched_products([(self.x, self.y), (self.x, pure)], self.workspace)
        assert (self.workspace.probe == -1).all()

    def test_mismatched_rows_raise_data_error(self):
        other = CsrPartition.from_column(np.zeros(41, dtype=np.int64))
        with pytest.raises(DataError):
            batched_products([(self.x, self.y), (self.x, other)], self.workspace)
        assert (self.workspace.probe == -1).all()

    @pytest.mark.parametrize("position", [0, 1])
    def test_out_of_range_rows_raise_index_error(self, position):
        # Whichever matrix row the corrupt factor gets, a row id past
        # the relation must raise instead of landing in another row.
        corrupt = CsrPartition.attach(
            np.array([45, 46], dtype=np.int64), np.array([0, 2], dtype=np.int64), 40
        )
        pairs = [(self.x, self.y), (self.x, corrupt)]
        if position == 0:
            pairs = [(corrupt, self.y), (self.x, self.y)]
        with pytest.raises(IndexError):
            batched_products(pairs, self.workspace)
        assert (self.workspace.probe == -1).all()
        [redo] = batched_products([(self.x, self.y)], self.workspace)
        assert_identical(redo, self.x.product(self.y))
