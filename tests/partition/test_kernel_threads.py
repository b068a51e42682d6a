"""Which discovery runs thread the pooled product kernel, and that
threading changes no answer.

Only a pooled-kernel call with several left factors and at least
``_THREAD_MIN_ROWS`` right-factor rows goes to the thread pool.  Short
relations take the dense kernel and a dfd walk's calls are a few
products each, so neither ever reaches the pool.
"""

import os

import pytest

import repro.partition.vectorized as vectorized
from repro.core.tane import TaneConfig, discover
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.uci import make_hepatitis_like, make_wisconsin_like

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
