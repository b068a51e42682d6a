"""Tests for the shared-memory shipment layer and executor resolution."""

import os

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.parallel.executor import (
    ProcessLevelExecutor,
    SerialLevelExecutor,
    make_executor,
)
from repro.parallel.shm import SharedPartitionBlock, attached_partition, detach_all
from repro.partition.pure import PurePartition
from repro.partition.vectorized import CsrPartition


@pytest.fixture(autouse=True)
def _clean_attachments():
    yield
    detach_all()


class TestExportAttach:
    def test_round_trip(self):
        original = CsrPartition.from_column([0, 0, 1, 1, 1, 2])
        indices, offsets = original.export_buffers()
        rebuilt = CsrPartition.attach(indices, offsets, original.num_rows)
        assert rebuilt.class_sets() == original.class_sets()
        assert rebuilt.num_rows == original.num_rows
        assert rebuilt.error_count == original.error_count

    def test_export_buffers_contiguous_int32(self):
        indices, offsets = CsrPartition.from_column([0, 0, 1]).export_buffers()
        for array in (indices, offsets):
            assert array.dtype == np.int32
            assert array.flags["C_CONTIGUOUS"]


class TestSharedPartitionBlock:
    def test_pack_and_reconstruct(self):
        partitions = {
            1: CsrPartition.from_column([0, 0, 1, 1, 2, 2]),
            2: CsrPartition.from_column([0, 1, 1, 0, 2, 2]),
            4: CsrPartition.from_column([5, 5, 5, 5, 5, 5]),
        }
        block = SharedPartitionBlock(partitions)
        try:
            for mask, original in partitions.items():
                rebuilt = attached_partition(
                    block.name, mask, block.directory[mask]
                )
                assert rebuilt.class_sets() == original.class_sets()
                assert rebuilt.num_rows == original.num_rows
        finally:
            detach_all()
            block.close()

    def test_nbytes_counts_all_buffers(self):
        partition = CsrPartition.from_column([0, 0, 1, 1])
        block = SharedPartitionBlock({1: partition})
        expected = (partition.stripped_size + partition.num_classes + 1) * 4
        assert block.nbytes == expected
        block.close()

    def test_subset_restricts_directory(self):
        partitions = {
            1: CsrPartition.from_column([0, 0]),
            2: CsrPartition.from_column([0, 1]),
        }
        block = SharedPartitionBlock(partitions)
        assert set(block.subset([1])) == {1}
        assert set(block.subset([1, 2, 2])) == {1, 2}
        block.close()

    def test_close_idempotent(self):
        block = SharedPartitionBlock({1: CsrPartition.from_column([0, 0])})
        block.close()
        block.close()  # second close must not raise

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs a /dev/shm listing"
    )
    def test_packing_failure_unlinks_segment(self):
        # The segment is created before packing; a partition that
        # cannot export CSR buffers (the pure engine's) must not leave
        # it behind.
        partitions = {
            1: CsrPartition.from_column([0, 0, 1, 1]),
            2: PurePartition.from_column([0, 0, 1, 1]),
        }
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(AttributeError, match="export_buffers"):
            SharedPartitionBlock(partitions)
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_empty_partition_block(self):
        # A level whose partitions are all superkeys strips to nothing.
        block = SharedPartitionBlock({1: CsrPartition.from_column([0, 1, 2])})
        rebuilt = attached_partition(block.name, 1, block.directory[1])
        assert rebuilt.num_classes == 0
        assert rebuilt.is_superkey()
        detach_all()
        block.close()


class TestMakeExecutor:
    def test_serial(self):
        assert isinstance(make_executor("serial", 0), SerialLevelExecutor)

    def test_auto_without_workers_is_serial(self):
        assert isinstance(make_executor("auto", 0), SerialLevelExecutor)
        assert isinstance(make_executor("auto", 1), SerialLevelExecutor)

    def test_auto_with_workers_is_process(self):
        executor = make_executor("auto", 2)
        assert isinstance(executor, ProcessLevelExecutor)
        assert executor.workers == 2
        executor.close()

    def test_instance_passthrough(self):
        instance = SerialLevelExecutor()
        assert make_executor(instance, 0) is instance

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_executor("thread", 0)

    def test_bad_retry_limits_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessLevelExecutor(workers=2, max_chunk_retries=-1)
        with pytest.raises(ConfigurationError):
            ProcessLevelExecutor(workers=2, retry_backoff_seconds=-1.0)
