"""Level blocks: a short relation's level as one label matrix.

Every block row, read back as CSR, must equal the chained products of
its attributes byte for byte, and every block rank must equal that
partition's ``error_count`` — for the levelwise products, the
from-singletons chains and the rank-only count.  The reference chains
run through ``CsrPartition.product`` (the pooled kernel), not the dense
one the blocks use.  A relation one row past the dense limit keeps
per-mask CSR, at any schema width.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.partition.vectorized as vectorized
from repro import _bitset
from repro.core.lattice import generate_next_level_arrays
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
    views = [None] * len(block) if block.labels is None else block.partitions()
    for mask, rank, view in zip(block.masks.tolist(), block.errors.tolist(), views):
        expected = chained(columns, mask, num_rows)
        assert rank == expected.error_count
        if view is None:
            continue
        assert view.indices.dtype == expected.indices.dtype == np.int32
        assert view.indices.tobytes() == expected.indices.tobytes()
        assert view.offsets.tobytes() == expected.offsets.tobytes()
        # Owned buffers: no views into the block's arrays.
        assert view.indices.base is None and view.offsets.base is None


def singleton_block(columns, num_rows):
    masks = [_bitset.bit(i) for i in range(len(columns))]
    partitions = [CsrPartition.from_column(codes, num_rows) for codes in columns]
    return LevelBlock.from_partitions(masks, partitions, num_rows)


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
        ranks = level.products(*candidates, ranks_only=True)
        level = level.products(*candidates)
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
    level = level.products(*candidates)
    for mask, view in zip(level.masks.tolist(), level.partitions()):
        first, second = _bitset.to_indices(mask)
        expected = pure[first].product(pure[second])
        assert view.class_sets() == expected.class_sets()


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
    level = block.products(*generate_next_level_arrays(block.masks))
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
        for mask, rank in zip(masks, errors):
            if mask >> 60 == 0 and len(columns) > 3:
                continue  # pairs of two copies below bit 60: all the same check
            expected = chained(columns, mask, num_rows)
            observed = manager.get(mask)
            assert rank == manager.error_count(mask) == expected.error_count
            assert observed.indices.tobytes() == expected.indices.tobytes()
            assert observed.offsets.tobytes() == expected.offsets.tobytes()

