"""The row-order invariant of the canonical CSR layout.

Rows ascend by row id inside every stripped class of every partition
the program builds.  The dense product kernel emits ascending rows
whatever its inputs, while the per-triple and pooled kernels keep the
right factor's order, so the kernels agree byte for byte only under
this invariant.  A partition wrapped around raw buffers is checked
lazily, and a non-ascending right factor keeps its products off the
dense kernel.
"""

import numpy as np
import pytest

import repro.partition.vectorized as vectorized
from repro.partition.store import DiskPartitionStore
from repro.partition.vectorized import CsrPartition, batched_products

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
def factors():
    rng = np.random.default_rng(8)
    return [
        CsrPartition.from_column(rng.integers(0, domain, size=NUM_ROWS))
        for domain in (3, 4, 5, 7)
    ]


class TestEveryBuilderAscends:
    def test_from_column(self, factors):
        for partition in factors:
            assert rows_ascend(partition)
            assert partition._rows_ascending()

    def test_from_classes(self):
        partition = CsrPartition.from_classes([[7, 2, 5], [9, 0], [4]], 10)
        assert rows_ascend(partition)
        assert partition.indices.tolist() == [2, 5, 7, 0, 9]

    def test_product_both_sides_of_the_small_threshold(self, factors, monkeypatch):
        x, y = factors[0], factors[1]
        small = x._product_small(y)
        monkeypatch.setattr(vectorized, "_SMALL_PRODUCT_THRESHOLD", -1)
        probed = x.product(y)
        assert rows_ascend(small) and small._rows_ascending()
        assert rows_ascend(probed) and probed._rows_ascending()

    def test_dense_batched_products(self, factors):
        level = batched_products([(x, y) for x in factors for y in factors if x is not y])
        assert all(rows_ascend(p) and p._ascending is True for p in level)

    def test_pooled_batched_products(self, factors, pooled_kernel):
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

    def test_attach_over_exported_buffers(self, factors):
        for original in factors:
            indices, offsets = original.export_buffers()
            attached = CsrPartition.attach(indices.copy(), offsets.copy(), NUM_ROWS)
            assert attached._ascending is None  # raw buffers: not yet known
            assert rows_ascend(attached) and attached._rows_ascending()
            assert np.array_equal(attached.indices, original.indices)


class TestRawNonAscendingPartitions:
    """A hand-built partition may break the invariant; such a right
    factor is routed away from the dense kernel."""

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

    def test_ascending_raw_buffers_take_the_dense_kernel(self, factors, monkeypatch):
        raw = CsrPartition(factors[0].indices.copy(), factors[0].offsets.copy(), NUM_ROWS)
        calls = []
        original = vectorized._dense_products
        monkeypatch.setattr(
            vectorized,
            "_dense_products",
            lambda tasks, *args: calls.append(len(tasks)) or original(tasks, *args),
        )
        [observed] = batched_products([(factors[1], raw)])
        assert calls == [1]
        assert raw._ascending is True
        assert np.array_equal(observed.indices, factors[1].product(raw).indices)

    def test_non_ascending_right_factor_skips_the_dense_kernel(self, monkeypatch):
        x = CsrPartition(np.array([3, 1, 2, 0]), np.array([0, 4]), 4)
        calls = []
        monkeypatch.setattr(
            vectorized, "_dense_products", lambda tasks, *args: calls.append(tasks)
        )
        batched_products([(x, x)])
        assert calls == []
