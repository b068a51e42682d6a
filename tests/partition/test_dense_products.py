"""The dense label-matrix kernel of level blocks, and the batched CSR products.

A level block's products (:meth:`LevelBlock.products` and
:meth:`LevelBlock.chains`) group a chunk of tasks with one row-wise sort
of their label rows (``_grouped_rows``).  Every row of the result must
hold the reference label row (``tests/partition/conftest.py``) and
class count of the per-triple :meth:`CsrPartition.product` (the pooled
kernel), and every rank, with labels or without, equal its
``error_count``.  A block of arbitrary factors is built by the
``LevelBlock`` constructor on their reference label rows.
``batched_products`` must match the same per-triple products, own its
buffers, and keep its error contract.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.partition.vectorized as vectorized
from repro.core.lattice import generate_next_level_arrays
from repro.exceptions import DataError
from repro.model.relation import Relation
from repro.partition.pure import PurePartition
from repro.partition.vectorized import (
    CsrPartition,
    LevelBlock,
    PartitionWorkspace,
    batched_products,
)
from tests.partition.conftest import assert_rows_match, label_block


def assert_identical(observed, expected):
    assert observed.indices.dtype == np.int32
    assert observed.offsets.dtype == np.int32
    assert np.array_equal(observed.indices, expected.indices)
    assert np.array_equal(observed.offsets, expected.offsets)
    assert observed.num_rows == expected.num_rows
    assert observed.error_count == expected.error_count


def assert_owned(partition):
    """No views into a kernel's shared arrays."""
    assert partition.indices.base is None
    assert partition.offsets.base is None


def assert_matches_per_triple(pairs, workspace=None):
    results = batched_products(pairs, workspace)
    assert len(results) == len(pairs)
    for (x, y), observed in zip(pairs, results):
        assert_identical(observed, x.product(y))
        assert_owned(observed)
    return results


def block_level(pairs, ranks_only=False):
    """``pairs`` as one level-block product: their distinct factors form
    a block (masks 1, 2, ...), multiplied into one row per pair
    (candidates 0, 1, ...)."""
    factors = list({id(f): f for pair in pairs for f in pair}.values())
    row = {id(f): index for index, f in enumerate(factors)}
    block = label_block(range(1, len(factors) + 1), factors, factors[0].num_rows)
    return block.products(
        np.arange(len(pairs)),
        np.array([row[id(x)] for x, _y in pairs]),
        np.array([row[id(y)] for _x, y in pairs]),
        ranks_only=ranks_only,
    )


def assert_rows_match_per_triple(pairs, level):
    assert_rows_match(level, [x.product(y) for x, y in pairs])


def assert_block_matches_per_triple(pairs):
    """The block product of ``pairs`` and its rank-only twin against
    the per-triple products."""
    assert_rows_match_per_triple(pairs, block_level(pairs))
    ranks = block_level(pairs, ranks_only=True)
    assert ranks.labels is None
    assert_rows_match_per_triple(pairs, ranks)


def chain_products(columns, candidates):
    """Each candidate's partition as a chain of per-triple products of
    its columns, in ascending attribute order."""
    products = []
    for mask in candidates:
        indices = [i for i in range(len(columns)) if mask >> i & 1]
        product = CsrPartition.from_column(columns[indices[0]])
        for index in indices[1:]:
            product = product.product(CsrPartition.from_column(columns[index]))
        products.append(product)
    return products


def singleton_block(columns):
    return LevelBlock.from_columns(Relation.from_codes(columns))


@pytest.fixture
def chunk_tasks(monkeypatch):
    """Record the task count of every dense chunk."""
    calls = []
    original = vectorized._grouped_rows

    def recording(left, *args):
        calls.append(left.shape[0])
        return original(left, *args)

    monkeypatch.setattr(vectorized, "_grouped_rows", recording)
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
        # A block needs two rows; the search keeps shorter relations CSR.
        if pairs[0][0].num_rows >= 2:
            assert_block_matches_per_triple(pairs)

    def test_largest_dense_relation(self, chunk_tasks):
        rows = vectorized._DENSE_MAX_ROWS
        rng = np.random.default_rng(3)
        factors = [
            CsrPartition.from_column(rng.integers(0, domain, size=rows))
            for domain in (2, 40, rows // 2)
        ]
        pairs = [(x, y) for x in factors for y in factors]
        level = block_level(pairs)
        assert chunk_tasks == [9]
        assert level.labels.dtype == vectorized.LABEL_DTYPE
        assert_rows_match_per_triple(pairs, level)


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
        pairs = [(x, y) for x in partitions for y in partitions]
        assert_matches_per_triple(pairs)
        if num_rows >= 2:
            assert_block_matches_per_triple(pairs)

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
        assert_block_matches_per_triple(pairs)

    def test_chunk_whose_outputs_are_all_empty(self, chunk_tasks):
        # {0,1},{2,3} times {0,2},{1,3}: every pair class is a singleton.
        x = CsrPartition.from_classes([[0, 1], [2, 3]], 8)
        y = CsrPartition.from_classes([[0, 2], [1, 3]], 8)
        level = block_level([(x, y), (y, x)])
        assert chunk_tasks == [2]
        assert level.classes.tolist() == [0, 0] and (level.labels == -1).all()
        assert_rows_match_per_triple([(x, y), (y, x)], level)

    def test_int16_keys(self, key_dtypes):
        rng = np.random.default_rng(5)
        x, y = (CsrPartition.from_column(rng.integers(0, 3, size=40)) for _ in range(2))
        level = block_level([(x, y)])
        assert key_dtypes == [np.dtype(np.int16)]
        assert_rows_match_per_triple([(x, y)], level)

    def test_pair_overflowing_int16_takes_int32_keys(self, key_dtypes):
        # 200 x 200 classes: classes_x * classes_y alone exceeds int16.
        num_rows = 400
        x = CsrPartition.from_column(np.arange(num_rows) // 2)
        y = CsrPartition.from_column(np.arange(num_rows) % 200)
        assert x.num_classes * y.num_classes > np.iinfo(np.int16).max
        pairs = [(x, y), (y, x), (x, x)]
        level = block_level(pairs)
        assert key_dtypes == [np.dtype(np.int32)]
        assert_rows_match_per_triple(pairs, level)

    def test_tagged_keys_overflowing_int32_take_int64(self, key_dtypes):
        num_rows = vectorized._DENSE_MAX_ROWS
        x = CsrPartition.from_column(np.arange(num_rows) // 2)
        y = CsrPartition.from_column(np.arange(num_rows) % (num_rows // 2))
        pairs = [(x, y), (x, x)]
        level = block_level(pairs)
        assert key_dtypes == [np.dtype(np.int64)]
        assert_rows_match_per_triple(pairs, level)

    @pytest.mark.parametrize(
        ("classes_x", "classes_y", "rank_dtype"),
        [
            # 2 * (126 * 130 + 1) = 32,762: the widest flagged key span
            # below int16's 32,767 that two label rows of 260 give.
            (126, 130, np.int16),
            # 2 * (127 * 129 + 1) = 32,768: one past int16.
            (127, 129, np.int32),
        ],
    )
    def test_rank_only_keys_at_the_int16_limit(
        self, key_dtypes, classes_x, classes_y, rank_dtype
    ):
        # The flag bit doubles the key span, so int16 holds rank-only
        # keys only while 2 * (classes_x * classes_y + 1) <= 32,767.
        # All-stripped and one-class factors share the chunk.
        num_rows = 2 * max(classes_x, classes_y)
        x = CsrPartition.from_column(np.arange(num_rows) % classes_x)
        y = CsrPartition.from_column(np.arange(num_rows) % classes_y)
        assert (x.num_classes, y.num_classes) == (classes_x, classes_y)
        empty = CsrPartition.empty(num_rows)
        single = CsrPartition.single_class(num_rows)
        pairs = [
            (x, y), (y, x), (empty, y), (x, empty), (single, y), (x, single),
            (empty, single), (single, single),
        ]
        ranks = block_level(pairs, ranks_only=True)
        assert key_dtypes == [np.dtype(rank_dtype)]
        del key_dtypes[:]
        full = block_level(pairs)
        # Tagged with 9 bits of row id, the full products' keys are wider.
        assert key_dtypes == [np.dtype(np.int32)]
        assert ranks.labels is None
        assert ranks.errors.tolist() == full.errors.tolist()
        assert_rows_match_per_triple(pairs, ranks)
        assert_rows_match_per_triple(pairs, full)

    def test_zero_row_block_products_are_empty_rows(self):
        # The zero-row singletons' block multiplies into blocks of empty
        # label rows, with no class and rank 0, through every path.
        block = LevelBlock.from_columns(
            Relation.from_codes([np.zeros(0, dtype=np.int64)] * 3)
        )
        assert block.labels.shape == (3, 0)
        candidates = generate_next_level_arrays(block.masks)
        rows = candidates.factor_rows
        for level in (
            block.products(candidates.candidates, *rows),
            block.chains(candidates.candidates),
        ):
            assert level.masks.tolist() == [0b011, 0b101, 0b110]
            assert level.labels.shape == (3, 0)
            assert level.classes.tolist() == level.errors.tolist() == [0, 0, 0]
        for ranks in (
            block.products(candidates.candidates, *rows, ranks_only=True),
            block.chains(candidates.candidates, ranks_only=True),
        ):
            assert ranks.labels is None
            assert ranks.errors.tolist() == [0, 0, 0]

    def test_chunks_split_at_the_element_budget(self, monkeypatch, chunk_tasks):
        num_rows = 60
        monkeypatch.setattr(vectorized, "_DENSE_ELEMENT_BUDGET", 4 * num_rows)
        rng = np.random.default_rng(6)
        columns = [rng.integers(0, 4, size=num_rows) for _ in range(4)]
        factors = [CsrPartition.from_column(codes) for codes in columns]
        pairs = [(x, y) for x in factors for y in factors]
        assert_rows_match_per_triple(pairs, block_level(pairs))
        assert chunk_tasks == [4, 4, 4, 4]
        # The four 3-attribute chains: two product steps of one chunk.
        del chunk_tasks[:]
        candidates = [0b0111, 0b1011, 0b1101, 0b1110]
        chains = singleton_block(columns).chains(candidates)
        assert chunk_tasks == [4, 4]
        assert_rows_match(chains, chain_products(columns, candidates))

    def test_budget_below_one_row_still_progresses(self, monkeypatch, chunk_tasks):
        monkeypatch.setattr(vectorized, "_DENSE_ELEMENT_BUDGET", 1)
        rng = np.random.default_rng(7)
        columns = [rng.integers(0, 3, size=30) for _ in range(3)]
        factors = [CsrPartition.from_column(codes) for codes in columns[:2]]
        pairs = [(x, y) for x in factors for y in factors]
        assert_rows_match_per_triple(pairs, block_level(pairs))
        assert chunk_tasks == [1, 1, 1, 1]
        del chunk_tasks[:]
        candidates = [0b011, 0b101, 0b110]
        ranks = singleton_block(columns).chains(candidates, ranks_only=True)
        assert chunk_tasks == [1, 1, 1]
        assert_rows_match(ranks, chain_products(columns, candidates))

    def test_results_do_not_share_buffers(self):
        rng = np.random.default_rng(8)
        factors = [CsrPartition.from_column(rng.integers(0, 3, size=30)) for _ in range(3)]
        pairs = [(x, y) for x in factors for y in factors]
        results = batched_products(pairs)
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
        # Whichever task the corrupt factor gets, a row id past the
        # relation must raise instead of landing in another task's rows.
        corrupt = CsrPartition._built(
            np.array([45, 46], dtype=np.int32), np.array([0, 2], dtype=np.int32), 40, None
        )
        pairs = [(self.x, self.y), (self.x, corrupt)]
        if position == 0:
            pairs = [(corrupt, self.y), (self.x, self.y)]
        with pytest.raises(IndexError):
            batched_products(pairs, self.workspace)
        assert (self.workspace.probe == -1).all()
        [redo] = batched_products([(self.x, self.y)], self.workspace)
        assert_identical(redo, self.x.product(self.y))
