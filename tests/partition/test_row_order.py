"""The row-order invariant of the canonical CSR layout.

Rows ascend by row id inside every stripped class of every partition
the program builds; the pooled kernel keeps the right factor's order.
A partition wrapped around raw buffers is checked lazily.  A level
block's label rows hold no row order: its products must hold the label
rows of the ascending CSR products.
"""

import numpy as np
import pytest

from repro.core.lattice import generate_next_level_arrays
from repro.partition.store import DiskPartitionStore
from repro.model.relation import Relation
from repro.partition.vectorized import CsrPartition, LevelBlock, batched_products
from tests.partition.conftest import assert_rows_match

NUM_ROWS = 90


def rows_ascend(partition):
    """Rows ascend inside each class, checked class by class."""
    offsets = partition.offsets.tolist()
    indices = partition.indices.tolist()
    return all(
        indices[i] < indices[i + 1]
        for k in range(len(offsets) - 1)
        for i in range(offsets[k], offsets[k + 1] - 1)
    )


@pytest.fixture
def columns():
    rng = np.random.default_rng(8)
    return [rng.integers(0, domain, size=NUM_ROWS) for domain in (3, 4, 5, 7)]


@pytest.fixture
def factors(columns):
    return [CsrPartition.from_column(codes) for codes in columns]


class TestEveryBuilderAscends:
    def test_from_column(self, factors):
        for partition in factors:
            assert rows_ascend(partition)
            assert partition._rows_ascending()

    def test_from_classes(self):
        partition = CsrPartition.from_classes([[7, 2, 5], [9, 0], [4]], 10)
        assert rows_ascend(partition)
        assert partition.indices.tolist() == [2, 5, 7, 0, 9]

    def test_probed_product(self, factors):
        x, y = factors[0], factors[1].without_column()
        probed = x.product(y)
        assert rows_ascend(probed) and probed._rows_ascending()

    def test_dense_batched_products(self, columns, factors):
        # A level block's products hold the label rows of the pooled
        # products, which ascend.
        block = LevelBlock.from_columns(Relation.from_codes(columns))
        candidates = generate_next_level_arrays(block.masks)
        singleton = {1 << i: factor for i, factor in enumerate(factors)}
        pooled = batched_products(
            [(singleton[x], singleton[y]) for _mask, x, y in candidates.triples()]
        )
        assert all(rows_ascend(p) and p._ascending is True for p in pooled)
        assert_rows_match(
            block.products(candidates.candidates, *candidates.factor_rows), pooled
        )

    def test_pooled_batched_products(self, factors):
        level = batched_products([(x, y) for x in factors for y in factors if x is not y])
        assert all(rows_ascend(p) and p._ascending is True for p in level)

    def test_disk_store_round_trip(self, factors, tmp_path):
        store = DiskPartitionStore(
            resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0
        )
        try:
            product = factors[0].product(factors[1])
            store.put(1, product)
            store.put(2, factors[2])
            assert store.spill_count > 0
            loaded = store.get(1)
            assert loaded._ascending is None  # raw buffers: not yet known
            assert rows_ascend(loaded) and loaded._rows_ascending()
            assert np.array_equal(loaded.indices, product.indices)
        finally:
            store.close()

    def test_constructor_over_exported_buffers(self, factors):
        for original in factors:
            indices, offsets = original.export_buffers()
            wrapped = CsrPartition(indices.copy(), offsets.copy(), NUM_ROWS)
            assert wrapped._ascending is None  # raw buffers: not yet known
            assert rows_ascend(wrapped) and wrapped._rows_ascending()
            assert np.array_equal(wrapped.indices, original.indices)


class TestRawNonAscendingPartitions:
    """A hand-built partition may break the invariant; a product keeps
    such a right factor's row order."""

    def test_hand_built_single_class(self):
        x = CsrPartition(np.array([3, 1, 2, 0]), np.array([0, 4]), 4)
        assert not x._rows_ascending()
        [batched] = batched_products([(x, x)])
        assert batched.indices.tolist() == [3, 1, 2, 0]
        assert np.array_equal(batched.indices, x.product(x).indices)

    def test_descending_right_factor_keeps_its_order(self, factors):
        ascending = factors[0]
        reversed_classes = CsrPartition(
            np.concatenate(
                [
                    ascending.indices[start:stop][::-1]
                    for start, stop in zip(ascending.offsets[:-1], ascending.offsets[1:])
                ]
            ),
            ascending.offsets.copy(),
            NUM_ROWS,
        )
        assert not reversed_classes._rows_ascending()
        pairs = [(factors[1], reversed_classes), (reversed_classes, factors[1])]
        for (x, y), observed in zip(pairs, batched_products(pairs)):
            expected = x.product(y)
            assert np.array_equal(observed.indices, expected.indices)
            assert np.array_equal(observed.offsets, expected.offsets)
        # Only the product taking the row order from the reversed
        # factor breaks the invariant.
        first, second = batched_products(pairs)
        assert not rows_ascend(first)
        assert rows_ascend(second)
