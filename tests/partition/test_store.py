"""Tests for the memory and disk partition stores."""

import struct

import numpy as np
import pytest

from repro import _bitset
from repro.exceptions import ConfigurationError, DataError, PartitionMissingError
from repro.model.relation import Relation
from repro.partition.store import DiskPartitionStore, MemoryPartitionStore, make_store
from repro.partition.vectorized import CsrPartition, LevelBlock


def partition_of(codes):
    return CsrPartition.from_column(codes)


class TestMemoryStore:
    def test_put_get(self):
        store = MemoryPartitionStore()
        partition = partition_of([0, 0, 1])
        store.put(3, partition)
        assert store.get(3) is partition
        assert len(store) == 1

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            MemoryPartitionStore().get(1)

    def test_discard(self):
        store = MemoryPartitionStore()
        store.put(1, partition_of([0, 0]))
        store.discard(1)
        with pytest.raises(KeyError):
            store.get(1)
        store.discard(1)  # idempotent

    def test_overwrite(self):
        store = MemoryPartitionStore()
        store.put(1, partition_of([0, 0]))
        replacement = partition_of([0, 0, 0])
        store.put(1, replacement)
        assert store.get(1) is replacement

    def test_peak_bytes_tracked(self):
        store = MemoryPartitionStore()
        store.put(1, partition_of([0] * 100))
        assert store.peak_resident_bytes > 0

    def test_close_clears(self):
        store = MemoryPartitionStore()
        store.put(1, partition_of([0, 0]))
        store.close()
        assert len(store) == 0


class TestDiskStore:
    def test_round_trip_through_disk(self, tmp_path):
        # Budget of 1 byte forces every earlier partition to spill.
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        partitions = {mask: partition_of([0, 0, mask % 3]) for mask in range(1, 6)}
        for mask, partition in partitions.items():
            store.put(mask, partition)
        assert store.spill_count > 0
        for mask, original in partitions.items():
            loaded = store.get(mask)
            assert loaded.class_sets() == original.class_sets()
            assert loaded.num_rows == original.num_rows
        assert store.load_count > 0
        store.close()

    def test_discard_on_disk(self, tmp_path):
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        store.put(1, partition_of([0, 0]))
        store.put(2, partition_of([1, 1]))  # spills mask 1
        store.discard(1)
        with pytest.raises(KeyError):
            store.get(1)
        store.close()

    def test_get_missing_raises(self, tmp_path):
        store = DiskPartitionStore(directory=tmp_path)
        with pytest.raises(KeyError):
            store.get(42)
        store.close()

    def test_len_counts_both(self, tmp_path):
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        for mask in range(1, 5):
            store.put(mask, partition_of([0, 0, 1, 1]))
        assert len(store) == 4
        store.close()

    def test_owns_tempdir_cleanup(self):
        store = DiskPartitionStore(resident_budget_bytes=1, min_spill_bytes=0)
        store.put(1, partition_of([0, 0]))
        store.put(2, partition_of([0, 0]))
        directory = store._directory
        assert directory.exists()
        store.close()
        assert not directory.exists()

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            DiskPartitionStore(resident_budget_bytes=0)

    def test_close_unlinks_files_in_user_directory(self, tmp_path):
        """Regression: with a caller-supplied ``directory=`` the store
        does not own the directory, but the ``partition-*.bin`` spill
        files are still its own to delete."""
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        for mask in range(1, 5):
            store.put(mask, partition_of([0, 0, 1, 1]))
        assert any(tmp_path.iterdir())
        store.close()
        assert tmp_path.exists()  # the user's directory survives ...
        assert not list(tmp_path.glob("partition-*"))  # ... our files do not

    def test_close_resets_disk_bytes(self, tmp_path):
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        for mask in range(1, 5):
            store.put(mask, partition_of([0, 0, 1, 1]))
        store.close()
        assert store._disk_bytes == 0
        assert len(store) == 0

    def test_put_many_streams(self, tmp_path):
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        store.put_many((mask, partition_of([0, 0, mask % 2])) for mask in range(1, 4))
        assert len(store) == 3
        assert store.get(2).num_rows == 3
        store.close()

    def test_peak_disk_bytes(self, tmp_path):
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        for mask in range(1, 5):
            store.put(mask, partition_of(list(range(10)) * 2))
        assert store.peak_disk_bytes > 0
        store.close()


def block_of(*columns):
    """The level-1 block of ``columns``."""
    return LevelBlock.from_columns(Relation.from_codes(columns))


def assert_same_block(observed, expected):
    for name in ("masks", "labels", "classes", "errors"):
        left, right = getattr(observed, name), getattr(expected, name)
        assert (left is None and right is None) or np.array_equal(left, right), name


class TestLevelBlocks:
    """A level block is one store entry, keyed ``-level``: put,
    spilled, reloaded, adopted and discarded whole."""

    COLUMNS = ([0, 0, 1, 1, 2], [0, 1, 0, 1, 0], [3, 3, 3, 4, 4])

    def test_memory_store_accounts_a_block_once(self):
        store = MemoryPartitionStore()
        block = block_of(*self.COLUMNS)
        store.put(-1, block)
        assert store.get(-1) is block and store.peek(-1) is block
        assert store.peak_resident_bytes == block.nbytes() and len(store) == 1
        store.discard(-1)
        assert store.peek(-1) is None
        with pytest.raises(PartitionMissingError, match="level 1"):
            store.get(-1)

    @pytest.mark.parametrize("ranks_only", [False, True])
    def test_spill_round_trip(self, tmp_path, ranks_only):
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        try:
            block = block_of(*self.COLUMNS)
            if ranks_only:
                block = LevelBlock(block.masks, None, None, block.errors, block.num_rows)
            store.put(-2, block)
            assert store.spill_count == 1 and (tmp_path / "level-2.bin").exists()
            assert store.peek(-2) is None
            assert_same_block(store.get(-2), block)
            assert store.load_count == 1
            store.discard(-2)
            assert not (tmp_path / "level-2.bin").exists()
        finally:
            store.close()

    def test_truncated_spill_raises_data_error(self, tmp_path):
        store = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        try:
            store.put(-1, block_of(*self.COLUMNS))
            path = tmp_path / "level-1.bin"
            path.write_bytes(path.read_bytes()[:-3])
            with pytest.raises(DataError, match="level-1.bin.*truncated payload"):
                store.get(-1)
        finally:
            store.close()

    def test_adoption_needs_the_same_masks(self, tmp_path):
        block = block_of(*self.COLUMNS)
        writer = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        writer.put(-1, block)
        writer.preserve_spill_files = True
        writer.close()
        reader = DiskPartitionStore(directory=tmp_path)
        try:
            assert not reader.adopt_spilled_block(1, block.masks[:2], block.num_rows)
            assert not reader.adopt_spilled_block(1, block.masks, block.num_rows + 1)
            assert not reader.adopt_spilled_block(3, block.masks, block.num_rows)
            assert reader.adopt_spilled_block(1, block.masks, block.num_rows)
            assert_same_block(reader.get(-1), block)
        finally:
            reader.close()

    @pytest.mark.parametrize("shift", [0, 61, 70])
    def test_masks_spill_as_64_bit_words(self, tmp_path, shift):
        # Shifted by 0 the masks are int64, one word each (their int64
        # bytes); by 61 or 70 they are object masks past bit 63, two
        # words each.  The block's bytes are the spill's payload.
        block = block_of(*self.COLUMNS)
        dtype = _bitset.mask_dtype(len(self.COLUMNS) + shift)
        masks = np.array([int(mask) << shift for mask in block.masks], dtype=dtype)
        block = LevelBlock(masks, block.labels, block.classes, block.errors, block.num_rows)
        writer = DiskPartitionStore(resident_budget_bytes=1, directory=tmp_path, min_spill_bytes=0)
        writer.put(-1, block)
        raw = (tmp_path / "level-1.bin").read_bytes()
        header = struct.Struct("<8sqqqq")
        assert header.unpack(raw[:header.size])[4] == (1 if shift == 0 else 2)
        assert len(raw) == header.size + block.nbytes()
        if shift == 0:
            assert raw[header.size:header.size + masks.nbytes] == masks.tobytes()
        loaded = writer.get(-1)
        assert loaded.masks.dtype == dtype and loaded.masks.tolist() == masks.tolist()
        assert_same_block(loaded, block)
        writer.preserve_spill_files = True
        writer.close()
        reader = DiskPartitionStore(directory=tmp_path)
        try:
            assert not reader.adopt_spilled_block(1, masks[:2], block.num_rows)
            assert reader.adopt_spilled_block(1, masks, block.num_rows)
            assert_same_block(reader.get(-1), block)
        finally:
            reader.close()


class TestMakeStore:
    def test_memory(self):
        assert isinstance(make_store("memory"), MemoryPartitionStore)

    def test_disk(self, tmp_path):
        store = make_store("disk", directory=tmp_path)
        assert isinstance(store, DiskPartitionStore)
        store.close()

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_store("cloud")

    def test_memory_rejects_options(self):
        with pytest.raises(ConfigurationError):
            make_store("memory", directory="/tmp")
