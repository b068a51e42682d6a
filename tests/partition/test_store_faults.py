"""Crash-path behaviour of the disk store: damaged spill files surface
as :class:`~repro.exceptions.DataError` naming the file and mask, clean
spill files survive reloads, and checkpoint resume can adopt files a
crashed run left behind."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.exceptions import DataError, PartitionMissingError
from repro.partition.store import _SPILL_HEADER, DiskPartitionStore, MemoryPartitionStore
from repro.partition.vectorized import CsrPartition
from repro.testing import faults


def partition_of(codes):
    return CsrPartition.from_column(np.asarray(codes, dtype=np.int64))


def spilled_store(tmp_path):
    """A store whose every put immediately spills (budget of 1 byte)."""
    return DiskPartitionStore(
        resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0
    )


def spill_one(store, mask=5, rows=64):
    partition = partition_of([i % 7 for i in range(rows)])
    store.put(mask, partition)
    # Pushing a second partition evicts the first (LRU).
    store.put(mask + 1, partition_of([i % 3 for i in range(rows)]))
    path = store._path_for(mask)
    assert path.exists()
    return partition, path


class TestMissingPartition:
    def test_memory_store_names_mask(self):
        with pytest.raises(PartitionMissingError, match="0x2a"):
            MemoryPartitionStore().get(0x2A)

    def test_disk_store_names_mask(self, tmp_path):
        with pytest.raises(PartitionMissingError, match="0x2a"):
            spilled_store(tmp_path).get(0x2A)

    def test_missing_is_data_error_and_key_error(self):
        # DataError for new code, KeyError for pre-existing callers.
        error = PartitionMissingError("x")
        assert isinstance(error, DataError)
        assert isinstance(error, KeyError)


class TestDamagedSpillFiles:
    def test_truncated_header(self, tmp_path):
        store = spilled_store(tmp_path)
        _, path = spill_one(store)
        faults.truncate_file(path, 7)
        with pytest.raises(DataError, match=rf"(?s){path.name}.*truncated header"):
            store.get(5)

    def test_truncated_payload(self, tmp_path):
        store = spilled_store(tmp_path)
        _, path = spill_one(store)
        faults.truncate_file(path, path.stat().st_size - 16)
        with pytest.raises(DataError, match=rf"(?s){path.name}.*truncated payload"):
            store.get(5)

    def test_corrupt_header_counts(self, tmp_path):
        store = spilled_store(tmp_path)
        _, path = spill_one(store)
        faults.corrupt_file(path, offset=0, payload=b"\xff" * 16)
        with pytest.raises(DataError, match="implausible header|truncated"):
            store.get(5)

    def test_corrupt_offsets(self, tmp_path):
        store = spilled_store(tmp_path)
        partition, path = spill_one(store)
        # Smash the offsets array (it follows the header and indices).
        offset = _SPILL_HEADER.size + partition.indices.nbytes
        faults.corrupt_file(path, offset=offset, payload=b"\x81" * 16)
        with pytest.raises(DataError, match="monotone"):
            store.get(5)

    def test_foreign_format_tag_names_the_file(self, tmp_path):
        store = spilled_store(tmp_path)
        _, path = spill_one(store)
        faults.corrupt_file(path, offset=0, payload=b"NOTCSR\x00\x00")
        with pytest.raises(DataError, match=rf"(?s){path.name}.*format tag"):
            store.get(5)

    def test_error_names_the_mask(self, tmp_path):
        store = spilled_store(tmp_path)
        _, path = spill_one(store, mask=0x1F)
        faults.truncate_file(path, 0)
        with pytest.raises(DataError, match="0x1f"):
            store.get(0x1F)


class TestCleanSpillFiles:
    def test_reload_keeps_spill_file(self, tmp_path):
        store = spilled_store(tmp_path)
        partition, path = spill_one(store)
        reloaded = store.get(5)
        assert path.exists(), "reload must not unlink the clean spill file"
        np.testing.assert_array_equal(reloaded.indices, partition.indices)
        np.testing.assert_array_equal(reloaded.offsets, partition.offsets)

    def test_re_eviction_of_clean_partition_is_free(self, tmp_path):
        store = spilled_store(tmp_path)
        spill_one(store)
        spills_before = store.spill_count
        # The 1-byte budget re-evicts the reloaded copy immediately:
        # clean, so no bytes hit the disk a second time.
        store.get(5)
        assert store.spill_count == spills_before, "clean eviction rewrote bytes"
        assert store.clean_evictions >= 1
        # The partition is still retrievable from its original file.
        assert store.get(5).num_rows == 64

    def test_put_invalidates_stale_disk_copy(self, tmp_path):
        store = spilled_store(tmp_path)
        _, path = spill_one(store)
        stale_bytes = path.read_bytes()
        replacement = partition_of([0, 1] * 32)
        store.put(5, replacement)
        # The stale file is gone; any file now present holds the
        # replacement's bytes (the 1-byte budget respills immediately).
        assert not path.exists() or path.read_bytes() != stale_bytes
        np.testing.assert_array_equal(store.get(5).indices, replacement.indices)

    def test_discard_removes_both_copies(self, tmp_path):
        store = spilled_store(tmp_path)
        _, path = spill_one(store)
        store.get(5)  # resident *and* on disk
        store.discard(5)
        assert not path.exists()
        with pytest.raises(PartitionMissingError):
            store.get(5)


class TestAdoptSpilled:
    def test_adopts_existing_file(self, tmp_path):
        store = spilled_store(tmp_path)
        partition, path = spill_one(store)
        store.preserve_spill_files = True
        store.close()
        assert path.exists()

        fresh = spilled_store(tmp_path)
        assert fresh.adopt_spilled(5, partition.num_rows)
        np.testing.assert_array_equal(fresh.get(5).indices, partition.indices)

    def test_old_format_file_is_not_adopted(self, tmp_path):
        # The untagged int64 layout of earlier versions: (indices count,
        # offsets count), then the raw arrays.
        indices = np.arange(4, dtype=np.int64)
        offsets = np.array([0, 2, 4], dtype=np.int64)
        path = spilled_store(tmp_path)._path_for(5)
        path.write_bytes(
            struct.pack("<qq", indices.size, offsets.size)
            + indices.tobytes()
            + offsets.tobytes()
        )
        store = spilled_store(tmp_path)
        assert not store.adopt_spilled(5, 4)
        with pytest.raises(PartitionMissingError):
            store.get(5)

    def test_adopt_missing_file_returns_false(self, tmp_path):
        store = spilled_store(tmp_path)
        assert not store.adopt_spilled(123, 10)

    def test_adopt_is_idempotent_for_known_masks(self, tmp_path):
        store = spilled_store(tmp_path)
        store.put(5, partition_of([0, 1, 2]))
        assert store.adopt_spilled(5, 3)


class TestPreserveSpillFiles:
    def test_close_preserves_when_flagged(self, tmp_path):
        store = spilled_store(tmp_path)
        _, path = spill_one(store)
        store.preserve_spill_files = True
        store.close()
        assert path.exists()

    def test_close_removes_files_by_default(self, tmp_path):
        store = spilled_store(tmp_path)
        _, path = spill_one(store)
        store.close()
        assert not path.exists()
        assert tmp_path.exists(), "caller-supplied directory itself survives"
