"""The pooled kernel's column-keyed path.

A right factor built by ``CsrPartition.from_column`` keeps the codes it
grouped, and a pooled-kernel call under ``_THREAD_MIN_ROWS`` right-factor
rows multiplies by it by grouping the left factor's rows by value code.
Its results must be the bytes of the probe path: same classes, class
order and row order, and the same ``e(π)`` in counts mode.  Partitions
built from raw buffers (``attach``, disk-store spills) carry no codes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.partition.vectorized as vectorized
from repro.datasets.uci import make_wisconsin_like
from repro.partition.store import DiskPartitionStore
from repro.partition.vectorized import (
    CsrPartition,
    PartitionWorkspace,
    batched_error_counts,
    batched_products,
)


def assert_identical(observed, expected):
    assert observed.indices.dtype == expected.indices.dtype
    assert observed.offsets.dtype == expected.offsets.dtype
    assert np.array_equal(observed.indices, expected.indices)
    assert np.array_equal(observed.offsets, expected.offsets)
    assert observed.num_rows == expected.num_rows


@pytest.fixture
def column_tasks(monkeypatch):
    """Record how many tasks each call hands to the column-keyed path."""
    taken = []
    column_products = vectorized._column_products

    def recording(tasks, results, num_rows, counts):
        taken.append(len(tasks))
        column_products(tasks, results, num_rows, counts)

    monkeypatch.setattr(vectorized, "_column_products", recording)
    return taken


def probe_pairs(pairs):
    """The pairs with every right factor stripped of its column."""
    return [(x, y.without_column()) for x, y in pairs]


@st.composite
def calls(draw):
    """One batched call over a short relation: left factors (columns,
    products, empty, single-class), some shared between tasks, times
    right factors with and without their column, including sparse
    code spaces that ``from_column`` re-encodes."""
    num_rows = draw(st.integers(min_value=2, max_value=48))
    column = st.lists(
        st.integers(min_value=0, max_value=5), min_size=num_rows, max_size=num_rows
    )

    def from_column():
        codes = np.array(draw(column), dtype=np.int64)
        if draw(st.booleans()):
            codes = codes * 10**9 + 7  # sparse: re-encoded densely
        return CsrPartition.from_column(codes, num_rows)

    def left_factor():
        kind = draw(st.sampled_from(["column", "product", "empty", "single"]))
        if kind == "column":
            return from_column().without_column()
        if kind == "product":
            return from_column().product(from_column())
        if kind == "empty":
            return CsrPartition.empty(num_rows)
        return CsrPartition.single_class(num_rows)

    lefts = [left_factor() for _ in range(draw(st.integers(1, 3)))]
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        x = draw(st.sampled_from(lefts))
        kind = draw(st.sampled_from(["column", "column", "plain", "single", "empty"]))
        if kind == "column":
            y = from_column()
        elif kind == "plain":
            y = from_column().without_column()
        elif kind == "single":
            y = CsrPartition.from_column(np.zeros(num_rows, dtype=np.int64))
        else:
            y = CsrPartition.from_column(np.arange(num_rows, dtype=np.int64))
        pairs.append((x, y))
    return pairs


class TestColumnPathMatchesProbePath:
    @given(pairs=calls())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    def test_products_and_counts_byte_identical(self, column_tasks, pairs):
        keyed = sum(y._column is not None for _x, y in pairs)
        column_tasks.clear()
        observed = batched_products(pairs)
        counts = batched_error_counts(pairs)
        assert sum(column_tasks) == 2 * keyed
        column_tasks.clear()
        probed = batched_products(probe_pairs(pairs))
        probed_counts = batched_error_counts(probe_pairs(pairs))
        assert not column_tasks
        for (x, y), got, want in zip(pairs, observed, probed, strict=True):
            assert_identical(got, want)
            assert_identical(got, x.product(y))
            assert got._rows_ascending()
        assert counts == probed_counts == [p.error_count for p in probed]
        assert all(type(count) is int for count in counts)

    def test_single_product_call_takes_the_path(self, column_tasks):
        rng = np.random.default_rng(3)
        x = CsrPartition.from_column(rng.integers(0, 9, size=3000))
        y = CsrPartition.from_column(rng.integers(0, 7, size=3000))
        observed = x.product(y, PartitionWorkspace(3000))
        assert column_tasks == [1]
        assert_identical(observed, x.product(y.without_column()))

    def test_solves_the_call_without_a_workspace(self, column_tasks):
        rng = np.random.default_rng(4)
        x = CsrPartition.from_column(rng.integers(0, 9, size=500))
        y = CsrPartition.from_column(rng.integers(0, 7, size=500))
        [observed] = batched_products([(x, y)])
        assert column_tasks == [1]
        assert_identical(observed, x.product(y.without_column()))


def non_ascending(partition):
    """The partition with every class's rows reversed (raw buffers)."""
    offsets = partition.offsets
    return CsrPartition(
        np.concatenate(
            [partition.indices[a:b][::-1] for a, b in zip(offsets[:-1], offsets[1:])]
        ),
        offsets.copy(),
        partition.num_rows,
    )


class TestGate:
    def test_non_ascending_left_factor_falls_back_to_the_probe_path(self, column_tasks):
        rng = np.random.default_rng(5)
        ascending = CsrPartition.from_column(rng.integers(0, 6, size=400))
        x = non_ascending(ascending)
        y = CsrPartition.from_column(rng.integers(0, 4, size=400))
        assert not x._rows_ascending()
        [observed] = batched_products([(x, y)])
        [count] = batched_error_counts([(x, y)])
        assert not column_tasks
        # The probe path keeps the right factor's (ascending) row order.
        [expected] = batched_products([(ascending, y.without_column())])
        assert_identical(observed, expected)
        assert count == expected.error_count

    def test_tall_calls_stay_on_the_probe_path(self, column_tasks, monkeypatch):
        rng = np.random.default_rng(6)
        x = CsrPartition.from_column(rng.integers(0, 6, size=400))
        rights = [CsrPartition.from_column(rng.integers(0, 4, size=400)) for _ in range(3)]
        pairs = [(x, y) for y in rights]
        right_rows = sum(y.stripped_size for y in rights)
        monkeypatch.setattr(vectorized, "_THREAD_MIN_ROWS", right_rows)
        at_gate = batched_products(pairs)
        assert not column_tasks
        monkeypatch.setattr(vectorized, "_THREAD_MIN_ROWS", right_rows + 1)
        below_gate = batched_products(pairs)
        assert column_tasks == [3]
        for got, want in zip(at_gate, below_gate, strict=True):
            assert_identical(got, want)


class TestNoPinnedColumn:
    def test_from_column_keeps_the_relation_buffer(self):
        codes = make_wisconsin_like(0).column_codes(2)
        partition = CsrPartition.from_column(codes)
        assert partition._column is codes
        assert partition._column_width == int(codes.max()) + 1

    def test_raw_buffers_carry_no_column(self):
        partition = CsrPartition.from_column(np.arange(60) % 7)
        indices, offsets = partition.export_buffers()
        assert CsrPartition(indices, offsets, 60)._column is None
        assert partition.without_column()._column is None
        assert partition._column is not None

    def test_disk_spills_come_back_without_a_column(self, tmp_path):
        rng = np.random.default_rng(8)
        partitions = [CsrPartition.from_column(rng.integers(0, 5, size=2000)) for _ in range(3)]
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        try:
            for mask, partition in enumerate(partitions, start=1):
                store.put(mask, partition)
            assert store.spill_count >= 2
            reloaded = store.get(1)
            assert reloaded is not partitions[0]
            assert reloaded._column is None
            assert_identical(reloaded, partitions[0])
        finally:
            store.close()
