"""Which discovery runs thread the pooled product kernel, and that
threading changes no answer.

Only a pooled-kernel call with several left factors and at least
``_THREAD_MIN_ROWS`` right-factor rows per left-factor group goes to the
thread pool.  Short
relations take the dense kernel and a dfd walk's calls are a few
products each, so neither ever reaches the pool.
"""

import os

import numpy as np
import pytest

import repro.partition.vectorized as vectorized
from repro.core.tane import TaneConfig, discover
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.uci import make_hepatitis_like, make_wisconsin_like
from repro.partition.vectorized import CsrPartition, batched_products

SEARCH_COUNTERS = (
    "validity_tests",
    "partition_products",
    "error_computations",
    "g3_bound_rejections",
)


def outcome(result):
    statistics = result.statistics
    return result.dependencies, [getattr(statistics, name) for name in SEARCH_COUNTERS]


@pytest.fixture
def pool_requests(monkeypatch):
    """Count the calls that asked for the thread pool."""
    requests = []
    kernel_pool = vectorized._kernel_pool

    def recording():
        requests.append(1)
        return kernel_pool()

    monkeypatch.setattr(vectorized, "_kernel_pool", recording)
    return requests


@pytest.mark.parametrize(
    "build, config",
    [
        # 155 rows x 20 attributes: the dense kernel.
        (lambda: make_hepatitis_like(0), TaneConfig(max_lhs_size=4)),
        # 2,796 rows: pooled, but a walk's calls stay under the gate.
        (
            lambda: replicate_with_unique_suffix(make_wisconsin_like(0), 4),
            TaneConfig(strategy="dfd", measure="pdep", epsilon=0.05),
        ),
    ],
    ids=["wide_exact", "afd_walk"],
)
def test_short_and_walk_runs_never_ask_for_the_pool(pool_requests, build, config):
    discover(build(), config)
    assert not pool_requests


@pytest.mark.multicore
def test_affinity_sized_pool_matches_single_thread(pool_requests, monkeypatch):
    relation = replicate_with_unique_suffix(make_wisconsin_like(0), 30)
    with monkeypatch.context() as patch:
        patch.setattr(vectorized, "_pool_threads", 1)
        expected = outcome(discover(relation, TaneConfig()))
    monkeypatch.setattr(vectorized, "_pool_threads", None)
    monkeypatch.setattr(vectorized, "_pool", None)
    try:
        observed = outcome(discover(relation, TaneConfig()))
        assert pool_requests
        assert vectorized._pool_threads == len(os.sched_getaffinity(0))
        assert vectorized._pool is not None
    finally:
        if vectorized._pool is not None:
            vectorized._pool.shutdown()
    assert observed == expected


def buffers(partition):
    return tuple(buffer.tobytes() for buffer in partition.export_buffers())


def test_many_small_groups_stay_on_the_calling_thread(pool_requests):
    # Forty left factors, each paired with one right factor of 2,000
    # rows: 80,000 right-factor rows in all, past the gate, but 2,000
    # per left-factor group, far under it.  Two groups of twenty pairs
    # over the same right factors do reach the pool.
    rng = np.random.default_rng(4)
    num_rows = 2_000
    lefts = [CsrPartition.from_column(rng.integers(0, 50, size=num_rows)) for _ in range(40)]
    rights = [
        CsrPartition.from_column(rng.integers(0, 9, size=num_rows)).without_column()
        for _ in range(40)
    ]
    small_groups = list(zip(lefts, rights))
    few_groups = [(lefts[i % 2], y) for i, y in enumerate(rights)]
    for pairs in (small_groups, few_groups):
        rows = sum(y.stripped_size for _x, y in pairs)
        assert rows >= vectorized._THREAD_MIN_ROWS
    assert len(small_groups) * vectorized._THREAD_MIN_ROWS > rows
    assert 2 * vectorized._THREAD_MIN_ROWS <= rows
    expected = [buffers(x.product(y)) for x, y in small_groups]
    pool_requests.clear()
    observed = batched_products(small_groups)
    assert not pool_requests
    assert [buffers(product) for product in observed] == expected
    batched_products(few_groups)
    assert pool_requests
