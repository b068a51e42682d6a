"""The threaded product kernel must pay off on a multi-core host.

On a tall relation the pooled kernel runs each call's left-factor
groups on a thread pool of one thread per CPU in the affinity mask
(:mod:`repro.partition.vectorized`).  This gate holds that pool to its
purpose: exact discovery over a replicated Wisconsin workload must be
faster with the affinity-sized pool than on one thread, with the same
dependencies, keys and search counters.  Auto-skipped on one CPU (the
``multicore`` marker); CI runs it in the ``multicore`` job.
"""

import os
import time

import pytest

import repro.partition.vectorized as vectorized
from repro.core.tane import TaneConfig, discover
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.uci import make_wisconsin_like

pytestmark = pytest.mark.multicore

# Interleaved runs per side; each side's best run is compared, so one
# slow run caused by a busy host decides nothing.
ROUNDS = 3


@pytest.fixture(scope="module")
def workload():
    # ~60k rows: tall enough that most pooled-kernel calls pass the
    # thread gate (_THREAD_MIN_ROWS right-factor rows).
    return replicate_with_unique_suffix(make_wisconsin_like(seed=0), 86)


def outcome(result):
    stats = result.statistics
    return (
        result.dependencies,
        result.keys,
        stats.level_sizes,
        stats.validity_tests,
        stats.partition_products,
        stats.error_computations,
    )


def timed_discover(relation):
    start = time.perf_counter()
    result = discover(relation, TaneConfig())
    return outcome(result), time.perf_counter() - start


def test_affinity_sized_pool_beats_one_thread(workload, monkeypatch):
    monkeypatch.setattr(vectorized, "_pool_threads", None)
    monkeypatch.setattr(vectorized, "_pool", None)
    threaded_seconds, single_seconds = [], []
    try:
        discover(workload, TaneConfig())  # start the pool outside the timing
        assert vectorized._pool_threads == len(os.sched_getaffinity(0))
        assert vectorized._pool is not None
        for _ in range(ROUNDS):
            threaded, seconds = timed_discover(workload)
            threaded_seconds.append(seconds)
            with monkeypatch.context() as patch:
                patch.setattr(vectorized, "_pool_threads", 1)
                single, seconds = timed_discover(workload)
            single_seconds.append(seconds)
            assert threaded == single
    finally:
        if vectorized._pool is not None:
            vectorized._pool.shutdown()
    best_threaded, best_single = min(threaded_seconds), min(single_seconds)
    assert best_threaded < best_single, (
        f"the affinity-sized pool did not beat one thread: best "
        f"{best_threaded:.2f}s threaded vs {best_single:.2f}s single-threaded"
    )
