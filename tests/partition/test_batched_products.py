"""The level-batched product kernels vs the per-triple reference.

``batched_products`` computes a whole level's products with a handful
of numpy passes; it must be *byte-identical* to calling
:meth:`CsrPartition.product` per pair — same classes, same class
order, same row order — because downstream consumers (disk spills,
level blocks, golden counters) all assume a canonical
layout that does not depend on which code path produced a partition.

Every relation height takes the pooled kernel; the level blocks'
dense kernel has its own suite in ``test_dense_products.py``.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.partition.vectorized as vectorized
from repro.partition.vectorized import (
    CsrPartition,
    PartitionWorkspace,
    batched_error_counts,
    batched_products,
)
from tests.partition.conftest import assert_matches_reference, assert_rows_match, label_block


def random_partitions(seed, count=8, num_rows=200, max_domain=12):
    rng = np.random.default_rng(seed)
    return [
        CsrPartition.from_column(
            rng.integers(0, rng.integers(1, max_domain + 1), size=num_rows)
        )
        for _ in range(count)
    ]


def assert_identical(observed, expected):
    assert np.array_equal(observed.indices, expected.indices)
    assert np.array_equal(observed.offsets, expected.offsets)
    assert observed.num_rows == expected.num_rows


def all_pairs(partitions):
    return [
        (x, y) for i, x in enumerate(partitions) for y in partitions[i + 1 :]
    ]


def block_products(partitions, ranks_only=False):
    """The products of :func:`all_pairs` through the level blocks' dense
    kernel: ``partitions`` as one block (masks 1, 2, ...), multiplied
    into a block of one row per pair."""
    count = len(partitions)
    block = label_block(range(1, count + 1), partitions, partitions[0].num_rows)
    factors = [(i, j) for i in range(1, count + 1) for j in range(i + 1, count + 1)]
    rows = np.transpose(factors) - 1
    return block.products(np.arange(len(factors)), *rows, ranks_only=ranks_only)


class TestBatchedMatchesPerTriple:
    def test_random_level_byte_identical(self):
        # Both kernels: the pooled one and the level blocks' dense one.
        partitions = random_partitions(seed=11)
        pairs = all_pairs(partitions)
        workspace = PartitionWorkspace(partitions[0].num_rows)
        batched = batched_products(pairs, workspace)
        assert len(batched) == len(pairs)
        for (x, y), observed in zip(pairs, batched, strict=True):
            assert_identical(observed, x.product(y))
        assert_rows_match(block_products(partitions), batched)
        assert (workspace.probe == -1).all()

    def test_forced_vectorized_byte_identical(self):
        # Tiny keyspaces, against the pair-key reference.
        partitions = random_partitions(seed=23, num_rows=64, max_domain=5)
        pairs = all_pairs(partitions)
        batched = batched_products(pairs)
        for (x, y), observed in zip(pairs, batched):
            assert_matches_reference(observed, x, y)

    def test_pooled_random_level_byte_identical(self):
        partitions = random_partitions(seed=11)
        workspace = PartitionWorkspace(partitions[0].num_rows)
        for (x, y), observed in zip(
            all_pairs(partitions), batched_products(all_pairs(partitions), workspace)
        ):
            assert_identical(observed, x.product(y))
        assert (workspace.probe == -1).all()

    def test_shared_left_factor_probe_reuse(self):
        # Levels sort triples by left factor; the batch kernel keeps
        # the probe scattered across consecutive same-left pairs.
        [left] = random_partitions(seed=3, count=1)
        rights = random_partitions(seed=4, count=6)
        pairs = [(left, right) for right in rights]
        for observed, right in zip(batched_products(pairs), rights):
            assert_identical(observed, left.product(right))

    def test_empty_and_degenerate_pairs(self):
        num_rows = 30
        empty = CsrPartition.empty(num_rows)
        single = CsrPartition.single_class(num_rows)
        ordinary = CsrPartition.from_column(
            np.arange(num_rows, dtype=np.int64) % 3
        )
        pairs = [
            (empty, ordinary),
            (ordinary, empty),
            (single, ordinary),
            (ordinary, single),
            (empty, empty),
        ]
        for (x, y), observed in zip(pairs, batched_products(pairs)):
            assert_identical(observed, x.product(y))

    def test_empty_task_list(self):
        assert batched_products([]) == []


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


def degenerate_pairs():
    num_rows = 30
    empty = CsrPartition.empty(num_rows)
    single = CsrPartition.single_class(num_rows)
    ordinary = CsrPartition.from_column(np.arange(num_rows, dtype=np.int64) % 3)
    return [(empty, ordinary), (ordinary, empty), (single, ordinary), (ordinary, single)]


class TestErrorCounts:
    """``batched_error_counts`` is ``e(π)`` of ``batched_products``."""

    @pytest.mark.parametrize(
        "case",
        ["dense", "pooled", "non_ascending_right", "empty_factor"],
    )
    def test_counts_match_products(self, case):
        partitions = random_partitions(seed=11)
        pairs = all_pairs(partitions)
        if case == "dense":
            # The level blocks' kernel counts the same ranks.
            ranks = block_products(partitions, ranks_only=True).errors
            assert ranks.tolist() == batched_error_counts(pairs)
        elif case == "non_ascending_right":
            pairs = [(x, non_ascending(y)) for x, y in pairs]
        elif case == "empty_factor":
            pairs = degenerate_pairs()
        workspace = PartitionWorkspace(pairs[0][0].num_rows)
        counts = batched_error_counts(pairs, workspace)
        assert counts == [p.error_count for p in batched_products(pairs)]
        assert all(type(count) is int for count in counts)
        assert (workspace.probe == -1).all()

    def test_large_tasks_solved_alone(self):
        pairs = all_pairs(random_partitions(seed=5, count=4))
        assert batched_error_counts(pairs) == [
            p.error_count for p in batched_products(pairs)
        ]

    def test_empty_task_list(self):
        assert batched_error_counts([]) == []


COLUMNS = st.lists(
    st.integers(min_value=0, max_value=4), min_size=0, max_size=40
)


class TestCanonicalOrderingProperty:
    """``product`` and ``batched_products`` emit the bytes of the
    pair-key reference, whatever the inputs' sizes and domains."""

    @given(left=COLUMNS, right=COLUMNS)
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_layouts_match_reference(self, left, right):
        num_rows = max(len(left), len(right))
        x = CsrPartition.from_column(
            np.array(left + [0] * (num_rows - len(left)), dtype=np.int64),
            num_rows,
        )
        y = CsrPartition.from_column(
            np.array(right + [0] * (num_rows - len(right)), dtype=np.int64),
            num_rows,
        )
        assert_matches_reference(x.product(y), x, y)
        [batched] = batched_products([(x, y)])
        assert_matches_reference(batched, x, y)


@pytest.fixture(scope="module")
def tall_levels():
    """Three levels of pooled-kernel products, built on one thread.

    Level k + 1 multiplies two level-k partitions that share all but
    their last attribute, as the search does, so each level has several
    left factors.  The mix of domains gives both tasks where most rows
    survive the probe and tasks with few survivors.
    """
    num_rows = 5000
    rng = np.random.default_rng(7)
    current = {
        (attribute,): CsrPartition.from_column(rng.integers(0, domain, size=num_rows))
        for attribute, domain in enumerate((2, 3, 4, 50, 400, 1500))
    }
    levels = []
    for _ in range(3):
        masks = sorted(current)
        joined = [
            (a, b) for i, a in enumerate(masks) for b in masks[i + 1 :] if a[:-1] == b[:-1]
        ]
        pairs = [(current[a], current[b]) for a, b in joined]
        levels.append(pairs)
        current = {a + b[-1:]: p for (a, b), p in zip(joined, batched_products(pairs))}
    survivors = [
        np.intersect1d(x.indices, y.indices).size for pairs in levels for x, y in pairs
    ]
    assert max(survivors) >= 4096
    assert 0 < min(survivors) < 64
    return levels


def fresh(partition):
    """The partition rebuilt from its buffers, with no cached labels."""
    return CsrPartition(partition.indices.copy(), partition.offsets.copy(), partition.num_rows)


class TestKernelThreads:
    """The threaded pooled kernel returns the single-thread bytes."""

    @pytest.mark.parametrize("level", range(3))
    def test_threaded_levels_byte_identical(self, tall_levels, kernel_threads, monkeypatch, level):
        pairs = tall_levels[level]
        with monkeypatch.context() as patch:
            patch.setattr(vectorized, "_pool_threads", 1)
            expected = batched_products(pairs)
            expected_counts = batched_error_counts(pairs)
        assert not kernel_threads
        observed = batched_products(pairs)
        assert kernel_threads, "the call did not run on the pool"
        assert batched_error_counts(pairs) == expected_counts
        for got, want in zip(observed, expected, strict=True):
            assert_identical(got, want)
            assert got._ascending == want._ascending
            assert got._rows_ascending() == want._rows_ascending()
        assert all((workspace.probe == -1).all() for workspace in kernel_threads)

    def test_more_threads_than_cores_at_short_switch_interval(
        self, tall_levels, kernel_threads, monkeypatch
    ):
        # Threads share the right factors' lazily cached labels and the
        # results list; fresh factors make every call race to fill the
        # label caches.
        pairs = tall_levels[1]
        with monkeypatch.context() as patch:
            patch.setattr(vectorized, "_pool_threads", 1)
            expected = [(p.indices, p.offsets) for p in batched_products(pairs)]
        monkeypatch.setattr(vectorized, "_pool_threads", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                rebuilt = {id(p): fresh(p) for pair in pairs for p in pair}
                observed = batched_products([(rebuilt[id(x)], rebuilt[id(y)]) for x, y in pairs])
                for got, (indices, offsets) in zip(observed, expected, strict=True):
                    assert np.array_equal(got.indices, indices)
                    assert np.array_equal(got.offsets, offsets)
        finally:
            sys.setswitchinterval(interval)
        assert kernel_threads, "the calls did not run on the pool"
