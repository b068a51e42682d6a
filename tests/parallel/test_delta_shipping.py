"""Unit tests for delta shipping and sharding.

These pin the executor's bookkeeping without needing a worker pool:
``_ship_missing`` / ``release_masks`` residency accounting and the
static ``_shards`` count (including the empty-task-list case that
used to divide by zero).
"""

import multiprocessing

import numpy as np
import pytest

from repro.parallel import worker as worker_mod
from repro.parallel.executor import CHUNKS_PER_WORKER, ProcessLevelExecutor
from repro.partition.vectorized import CsrPartition


@pytest.fixture
def executor():
    executor = ProcessLevelExecutor(workers=4)
    yield executor
    executor.close()


def fetcher(num_rows=30, domains=(2, 3, 4, 5)):
    partitions = {
        1 << i: CsrPartition.from_column(
            np.arange(num_rows, dtype=np.int64) % domain
        )
        for i, domain in enumerate(domains)
    }
    return partitions.__getitem__


class TestShards:
    def test_empty_task_list_yields_no_shards(self, executor):
        # Regression: the shard-count arithmetic used to divide by a
        # count of zero for an empty phase.
        assert executor._shards([]) == []
        assert executor._shards(()) == []

    def test_static_count_without_cost_data(self, executor):
        tasks = list(range(100))
        shards = executor._shards(tasks)
        assert len(shards) == executor.workers * CHUNKS_PER_WORKER
        assert [task for shard in shards for task in shard] == tasks

    def test_fewer_tasks_than_shards(self, executor):
        shards = executor._shards([1, 2, 3])
        assert len(shards) == 3
        assert all(len(shard) == 1 for shard in shards)


class TestDeltaResidency:
    def test_second_ship_only_sends_new_masks(self, executor):
        fetch = fetcher()
        executor._ship_missing({1, 2}, fetch, "products")
        assert executor.usage.blocks_shipped == 1
        assert set(executor._residency) == {1, 2}
        shipped_after_first = executor.usage.shm_bytes
        assert executor.usage.shm_bytes_saved == 0

        executor._ship_missing({1, 2, 4}, fetch, "products")
        assert executor.usage.blocks_shipped == 2, "only mask 4 needs a new block"
        assert set(executor._residency) == {1, 2, 4}
        assert executor.usage.shm_bytes > shipped_after_first
        assert executor.usage.shm_bytes_saved > 0, "masks 1,2 were resident"

        executor._ship_missing({1, 4}, fetch, "products")
        assert executor.usage.blocks_shipped == 2, "everything already resident"

    def test_release_masks_closes_drained_blocks(self, executor):
        fetch = fetcher()
        executor._ship_missing({1, 2}, fetch, "products")
        executor._ship_missing({4}, fetch, "products")
        assert len(executor._blocks) == 2

        executor.release_masks([1])
        assert len(executor._blocks) == 2, "block still holds mask 2"
        assert 1 not in executor._residency

        executor.release_masks([2])
        assert len(executor._blocks) == 1, "first block drained"
        assert set(executor._residency) == {4}

        executor.release_masks([4, 8])  # 8 was never resident: no-op
        assert not executor._blocks
        assert not executor._residency

    def test_directory_maps_masks_to_their_blocks(self, executor):
        fetch = fetcher()
        executor._ship_missing({1, 2}, fetch, "products")
        executor._ship_missing({4}, fetch, "products")
        directory = executor._directory([1, 4, 1])
        assert set(directory) == {1, 4}
        names = {directory[1][0], directory[4][0]}
        assert len(names) == 2, "masks live in the blocks that shipped them"


class TestDispatchConsumesEveryChunk:
    def test_products_stream_yields_every_triple_exactly_once(self):
        # Pins the `_dispatch` postcondition (position == len(chunks)
        # on the clean exit): every shard yields exactly one receipt,
        # in submission order, so the stream emits one product per
        # triple with no gap or duplicate — across two phases on the
        # same pool.
        num_rows = 24
        partitions = {
            1 << i: CsrPartition.from_column(
                np.arange(num_rows, dtype=np.int64) % domain
            )
            for i, domain in enumerate((2, 3, 4, 5, 6))
        }
        triples = [
            (x | y, x, y)
            for i, x in enumerate(sorted(partitions))
            for y in sorted(partitions)[i + 1 :]
        ]
        executor = ProcessLevelExecutor(workers=2, retry_backoff_seconds=0.0)
        try:
            for _phase in range(2):
                produced = list(
                    executor.products(triples, partitions.__getitem__, None)
                )
                assert [candidate for candidate, _ in produced] == [
                    candidate for candidate, _, _ in triples
                ]
                for (candidate, x, y), (_, product) in zip(triples, produced):
                    expected = partitions[x].product(partitions[y])
                    assert np.array_equal(product.indices, expected.indices)
                    assert np.array_equal(product.offsets, expected.offsets)
        finally:
            executor.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="monkeypatched threshold reaches workers via fork inheritance",
)
class TestResultBlockAdoption:
    """Large products return through worker-created shm blocks."""

    @pytest.fixture
    def partitions(self):
        num_rows = 200
        return {
            1 << i: CsrPartition.from_column(
                np.arange(num_rows, dtype=np.int64) % domain
            )
            for i, domain in enumerate((2, 3, 4))
        }

    @pytest.fixture
    def triples(self, partitions):
        return [(3, 1, 2), (5, 1, 4), (6, 2, 4)]

    def _run(self, executor, partitions, triples):
        produced = list(executor.products(triples, partitions.__getitem__, None))
        assert [candidate for candidate, _ in produced] == [
            candidate for candidate, _, _ in triples
        ]
        for (candidate, x, y), (_, product) in zip(triples, produced):
            expected = partitions[x].product(partitions[y])
            assert np.array_equal(product.indices, expected.indices)
            assert np.array_equal(product.offsets, expected.offsets)

    def test_adopted_candidates_become_resident(
        self, monkeypatch, partitions, triples
    ):
        # Every chunk crosses the (zeroed) byte threshold, so results
        # come back as worker-created blocks the parent adopts.
        monkeypatch.setattr(worker_mod, "_RESULT_BLOCK_MIN_BYTES", 0)
        executor = ProcessLevelExecutor(workers=2)
        try:
            self._run(executor, partitions, triples)
            assert {3, 5, 6} <= set(executor._residency)
            adopted = executor.usage.blocks_shipped
            assert adopted >= 2, "factor block plus at least one result block"

            # The next phase finds the candidates already resident:
            # nothing re-ships, and the skipped bytes are recorded.
            def unexpected_fetch(mask):
                raise AssertionError(f"mask {mask} should be resident")

            saved_before = executor.usage.shm_bytes_saved
            executor._ship_missing({3, 5, 6}, unexpected_fetch, "x")
            assert executor.usage.blocks_shipped == adopted
            assert executor.usage.shm_bytes_saved > saved_before

            # Releasing the candidates drains and closes their blocks.
            executor.release_masks([3, 5, 6])
            assert not {3, 5, 6} & set(executor._residency)
        finally:
            executor.close()

    def test_serial_fallback_adopts_its_own_block(
        self, monkeypatch, partitions, triples
    ):
        # Degraded mode runs chunks in the parent: the block is built,
        # detached, and re-adopted by the same process.
        monkeypatch.setattr(worker_mod, "_RESULT_BLOCK_MIN_BYTES", 0)
        executor = ProcessLevelExecutor(workers=2)
        try:
            executor._degraded = True
            executor.usage.degraded = True
            self._run(executor, partitions, triples)
            assert {3, 5, 6} <= set(executor._residency)
        finally:
            executor.close()

    def test_small_results_stay_inline(self, partitions, triples):
        # Default threshold: these tiny products pickle through the
        # pipe and never become resident.
        executor = ProcessLevelExecutor(workers=2)
        try:
            self._run(executor, partitions, triples)
            assert not {3, 5, 6} & set(executor._residency)
        finally:
            executor.close()

