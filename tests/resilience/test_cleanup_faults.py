"""Deterministic shared-memory cleanup on the normal and error paths.

A ``products`` stream ships a shared-memory block for its factors, and
large results come back in worker-created blocks the parent adopts.
Blocks intentionally stay resident after the phase — until
``release_masks`` drains them, ``begin_run`` starts a new search, or
:meth:`ProcessLevelExecutor.close` tears the executor down.  Whether
the stream was consumed, closed early, abandoned, or broken by a fault,
cleanup must be deterministic at each of those points and leave no
segment behind.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.tane import TaneConfig, discover
from repro.parallel import worker as worker_mod
from repro.parallel.executor import ProcessLevelExecutor
from repro.partition.vectorized import CsrPartition, PartitionWorkspace
from repro.testing import faults


def shm_entries() -> set[str]:
    """Names of the shared-memory segments currently on the host."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@pytest.fixture
def no_leaked_segments():
    before = shm_entries()
    yield
    assert shm_entries() - before == set(), "a shared-memory segment leaked"


@pytest.fixture
def executor(no_leaked_segments):
    executor = ProcessLevelExecutor(workers=1, retry_backoff_seconds=0.0)
    yield executor
    executor.close()


def toy_inputs(num_rows=40):
    codes_a = np.arange(num_rows, dtype=np.int64) % 4
    codes_b = np.arange(num_rows, dtype=np.int64) % 5
    partitions = {
        1: CsrPartition.from_column(codes_a, num_rows),
        2: CsrPartition.from_column(codes_b, num_rows),
    }
    triples = [(3, 1, 2)]
    return partitions, triples, PartitionWorkspace(num_rows)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="monkeypatched threshold reaches workers via fork inheritance",
)
def test_consumed_stream_blocks_released_at_release_masks(monkeypatch, executor):
    # Every result crosses the (zeroed) byte threshold, so the stream
    # leaves two blocks resident: the shipped factors and the adopted
    # result.  Reclaiming each level's masks closes its block.
    monkeypatch.setattr(worker_mod, "_RESULT_BLOCK_MIN_BYTES", 0)
    partitions, triples, workspace = toy_inputs()
    produced = list(executor.products(triples, partitions.__getitem__, workspace))
    assert len(executor._blocks) == 2
    executor.release_masks([1, 2])
    assert len(executor._blocks) == 1, "the result block still serves mask 3"
    del produced  # views over the result block must die before it closes
    executor.release_masks([3])
    assert not executor._blocks
    assert not executor._residency


def test_closed_stream_blocks_released_at_begin_run(executor):
    partitions, triples, workspace = toy_inputs()
    stream = executor.products(triples, partitions.__getitem__, workspace)
    next(stream)
    stream.close()
    assert executor._blocks, "closing the stream keeps its factors resident"
    executor.begin_run()
    assert not executor._blocks
    assert not executor._residency


def test_executor_close_releases_abandoned_stream(executor):
    partitions, triples, workspace = toy_inputs()
    stream = executor.products(triples, partitions.__getitem__, workspace)
    next(stream)
    assert executor._blocks
    # Abandon the generator without closing it; the executor still
    # tracks the block and close() must release it deterministically.
    del stream
    executor.close()
    assert not executor._blocks


def test_driver_closes_stream_when_consumption_raises(
    structured_relation, executor, monkeypatch
):
    # A failure while the driver consumes products (the store's put
    # path) unwinds `_generate_next_level` with the stream partially
    # consumed; the driver's finally must close it.  The caller-owned
    # executor stays open with its blocks resident until close().
    streams = []
    products = executor.products

    def recording_products(*args):
        stream = products(*args)
        streams.append(stream)
        return stream

    monkeypatch.setattr(executor, "products", recording_products)
    with faults.inject("tane.products.consume", RuntimeError("injected put failure")):
        with pytest.raises(RuntimeError, match="injected put failure"):
            discover(structured_relation, TaneConfig(executor=executor))
    assert executor.usage.shm_bytes > 0, "a block was shipped before the fault"
    assert streams and all(stream.gi_frame is None for stream in streams)
    assert executor._blocks
    executor.close()
    assert not executor._blocks


def test_delta_blocks_stay_resident_until_released(executor):
    partitions, triples, workspace = toy_inputs()
    list(executor.products(triples, partitions.__getitem__, workspace))
    # Residency across phases is the point of delta shipping.
    assert executor._blocks
    assert set(executor._residency) == {1, 2}
    executor.release_masks([1, 2])
    assert not executor._blocks
    assert not executor._residency


def test_delta_run_boundary_and_close_drop_residency(executor):
    partitions, triples, workspace = toy_inputs()
    list(executor.products(triples, partitions.__getitem__, workspace))
    assert executor._blocks
    executor.begin_run()
    assert not executor._blocks and not executor._residency
    list(executor.products(triples, partitions.__getitem__, workspace))
    assert executor._blocks
    executor.close()
    assert not executor._blocks and not executor._residency
