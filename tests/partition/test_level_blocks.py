"""Level blocks: a short relation's level as one label matrix.

The singletons' block comes from the column codes
(``LevelBlock.from_columns``).  Every block row must hold the reference
label row (``tests/partition/conftest.py``) of the chained products of
its attributes, with their class count, and every block rank must equal
that partition's ``error_count`` — for the singletons, the levelwise
products, the from-singletons chains and the rank-only count.  The
reference chains run through ``CsrPartition.product`` (the pooled
kernel), not the dense one the blocks use.  A relation one row past the
dense limit keeps per-mask CSR, at any schema width, and a walk in the
block form builds no CSR singleton.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.partition.vectorized as vectorized
from repro import _bitset
from repro.core.lattice import generate_next_level_arrays
from repro.core.tane import TaneConfig, discover
from repro.model.relation import Relation
from repro.partition.pure import PurePartition
from repro.partition.store import MemoryPartitionStore
from repro.partition.vectorized import (
    _DENSE_MAX_ROWS,
    CsrPartition,
    LevelBlock,
    PartitionWorkspace,
)
from repro.search.execution import SerialExecution
from repro.search.partitions import PartitionManager
from tests.partition.conftest import assert_rows_match, label_row


def chained(columns, mask, num_rows):
    """``π_mask`` as the product chain of its single-attribute
    partitions, each step a ``CsrPartition.product`` (the pooled
    kernel), which shares no grouping code with the blocks' dense
    kernel."""
    indices = _bitset.to_indices(mask)
    product = CsrPartition.from_column(columns[indices[0]], num_rows)
    for index in indices[1:]:
        product = product.product(CsrPartition.from_column(columns[index], num_rows))
    return product


def assert_block_matches(block, columns, num_rows):
    assert_rows_match(
        block, [chained(columns, mask, num_rows) for mask in block.masks.tolist()]
    )


def singleton_block(columns, num_rows):
    block = LevelBlock.from_columns(Relation.from_codes(columns))
    assert block.num_rows == num_rows
    return block


class Columns:
    """The column codes of a relation as they are, sparse ones
    included, which ``Relation.from_codes`` would re-encode."""

    def __init__(self, columns):
        self.columns = columns
        self.num_attributes = len(columns)
        self.num_rows = len(columns[0])

    def column_codes(self, attribute):
        return self.columns[attribute]


@st.composite
def short_relations(draw):
    """Columns over 2..2048 rows: constant, all-distinct or mixed."""
    num_rows = draw(st.integers(min_value=2, max_value=_DENSE_MAX_ROWS))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    columns = []
    for kind in draw(
        st.lists(st.sampled_from(["constant", "distinct", "mixed"]), min_size=2, max_size=4)
    ):
        if kind == "constant":
            codes = np.zeros(num_rows, dtype=np.int64)
        elif kind == "distinct":
            codes = rng.permutation(num_rows)
        else:
            domain = draw(st.integers(min_value=2, max_value=max(2, num_rows // 2)))
            codes = rng.integers(0, domain, size=num_rows)
        columns.append(np.asarray(codes, dtype=np.int64))
    return num_rows, columns


@given(short_relations())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_level_matches_the_chained_products(relation):
    num_rows, columns = relation
    level = singleton_block(columns, num_rows)
    assert_block_matches(level, columns, num_rows)
    singles = level
    while True:
        candidates = generate_next_level_arrays(level.masks)
        if candidates.candidates.size == 0:
            break
        rows = candidates.factor_rows
        ranks = level.products(candidates.candidates, *rows, ranks_only=True)
        level = level.products(candidates.candidates, *rows)
        assert level.labels.dtype == vectorized.LABEL_DTYPE
        assert np.array_equal(ranks.errors, level.errors) and ranks.labels is None
        assert_block_matches(level, columns, num_rows)
        chains = singles.chains(candidates.candidates)
        assert np.array_equal(chains.labels, level.labels)
        assert np.array_equal(chains.errors, level.errors)
        assert np.array_equal(
            singles.chains(candidates.candidates, ranks_only=True).errors, level.errors
        )


@given(short_relations())
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_block_rows_hold_the_reference_engines_classes(relation):
    num_rows, columns = relation
    level = singleton_block(columns, num_rows)
    pure = [PurePartition.from_column(codes, num_rows) for codes in columns]
    candidates = generate_next_level_arrays(level.masks)
    level = level.products(candidates.candidates, *candidates.factor_rows)
    for mask, labels, classes in zip(level.masks.tolist(), level.labels, level.classes):
        first, second = _bitset.to_indices(mask)
        expected = pure[first].product(pure[second])
        observed = {frozenset(np.flatnonzero(labels == k).tolist()) for k in range(classes)}
        assert observed == expected.class_sets()


@st.composite
def code_columns(draw):
    """Columns of 2 or 2,048 rows, or any length between: constant,
    all-distinct, mixed, or sparse codes (past the dense code space)."""
    num_rows = draw(
        st.one_of(st.sampled_from([2, _DENSE_MAX_ROWS]), st.integers(2, _DENSE_MAX_ROWS))
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    columns = []
    for kind in draw(
        st.lists(
            st.sampled_from(["constant", "distinct", "mixed", "sparse"]), min_size=1, max_size=4
        )
    ):
        if kind == "constant":
            codes = np.full(num_rows, draw(st.integers(0, 5)))
        elif kind == "distinct":
            codes = rng.permutation(num_rows)
        elif kind == "mixed":
            codes = rng.integers(0, draw(st.integers(1, num_rows)), size=num_rows)
        else:
            codes = rng.integers(0, 4, size=num_rows) * (3 * num_rows + 2048) + 7
        columns.append(np.asarray(codes, dtype=np.int64))
    return columns


@given(code_columns())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_singletons_block_holds_each_columns_label_row(columns):
    block = LevelBlock.from_columns(Columns(columns))
    assert block.masks.dtype == np.int64
    assert block.masks.tolist() == [1 << i for i in range(len(columns))]
    assert_rows_match(block, [CsrPartition.from_column(codes) for codes in columns])


def test_the_singletons_block_of_65_attributes_holds_object_masks():
    rng = np.random.default_rng(65)
    columns = [rng.integers(0, 1 + i % 7, size=40) for i in range(65)]
    block = LevelBlock.from_columns(Relation.from_codes(columns))
    assert block.masks.dtype == object
    assert block.masks.tolist() == [1 << i for i in range(65)]
    assert_rows_match(block, [CsrPartition.from_column(codes) for codes in columns])
    last = CsrPartition.from_column(columns[64])
    assert np.array_equal(block.row(1 << 64).labels, label_row(last))


def test_a_block_form_walk_builds_no_csr_singleton(monkeypatch):
    rng = np.random.default_rng(12)
    relation = Relation.from_codes([rng.integers(0, d, size=300) for d in (2, 3, 5, 8, 40)])
    expected = discover(relation, TaneConfig(epsilon=0.05))
    calls = []
    from_column = CsrPartition.from_column.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return from_column(cls, *args, **kwargs)

    monkeypatch.setattr(CsrPartition, "from_column", classmethod(counting))
    observed = discover(relation, TaneConfig(epsilon=0.05))
    assert calls == []
    assert observed.dependencies == expected.dependencies
    assert observed.statistics.partition_products == expected.statistics.partition_products
    # The counting wrapper does count: a taller relation builds its
    # singletons per mask.
    discover(relation.take(np.arange(_DENSE_MAX_ROWS + 1) % 300), TaneConfig(epsilon=0.05))
    assert len(calls) == relation.num_attributes


def test_int64_keys(monkeypatch):
    # (classes_x * classes_y + rows) * rows >= 2**31: tagged keys need 64 bits.
    num_rows = _DENSE_MAX_ROWS
    pairs = np.arange(num_rows) // 2
    columns = [pairs, np.roll(pairs, 1), np.arange(num_rows) % 2]
    block = singleton_block(columns, num_rows)
    classes_x, classes_y = block.classes[:2].tolist()
    assert (classes_x * classes_y + num_rows) * num_rows >= 2**31
    dtypes = []
    original = vectorized._narrowest_key_dtype

    def recording(keyspace):
        dtypes.append(original(keyspace))
        return dtypes[-1]

    monkeypatch.setattr(vectorized, "_narrowest_key_dtype", recording)
    candidates = generate_next_level_arrays(block.masks)
    level = block.products(candidates.candidates, *candidates.factor_rows)
    assert np.dtype(np.int64) in dtypes
    assert_block_matches(level, columns, num_rows)


@pytest.mark.parametrize("num_rows", [_DENSE_MAX_ROWS, _DENSE_MAX_ROWS + 1])
def test_the_dense_limit_selects_the_storage_form(num_rows):
    rng = np.random.default_rng(num_rows)
    narrow = [rng.integers(0, domain, size=num_rows) for domain in (3, 40, 900)]
    # The same rule at 3 attributes (int64 masks) and at 65 (object
    # masks: 62 copies of the first column come first).
    for columns in (narrow, narrow[:1] * 62 + narrow):
        relation = Relation.from_codes(columns, [f"c{i}" for i in range(len(columns))])
        manager = PartitionManager(
            relation,
            CsrPartition,
            MemoryPartitionStore(),
            PartitionWorkspace(num_rows),
            SerialExecution(),
        )
        level = manager.bootstrap(levels=True)
        assert manager.level_blocks == (num_rows <= _DENSE_MAX_ROWS)
        dtype = _bitset.mask_dtype(len(columns))
        errors = []
        masks = manager.materialize(
            generate_next_level_arrays(np.array(level, dtype=dtype)), errors
        )
        if manager.level_blocks:
            assert manager.store.get(-2).masks.dtype == dtype
        fetch = manager.batch_fetch()
        for mask, rank in zip(masks, errors):
            if mask >> 60 == 0 and len(columns) > 3:
                continue  # pairs of two copies below bit 60: all the same check
            expected = chained(columns, mask, num_rows)
            assert rank == manager.error_counts([mask])[0] == expected.error_count
            if manager.level_blocks:
                observed = fetch(mask)
                assert np.array_equal(observed.labels, label_row(expected))
                assert observed.num_classes == expected.num_classes
            else:
                observed = manager.get(mask)
                assert observed.indices.tobytes() == expected.indices.tobytes()
                assert observed.offsets.tobytes() == expected.offsets.tobytes()

