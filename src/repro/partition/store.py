"""Partition stores: the TANE vs TANE/MEM distinction (Sections 6–7).

The paper's scalable variant ("TANE") keeps most partitions on disk and
reads them back when a level needs them; "TANE/MEM" keeps everything in
main memory.  :class:`MemoryPartitionStore` and
:class:`DiskPartitionStore` implement the two policies behind one
interface, keyed by the attribute-set bitmask whose partition is
stored.

The disk store is a write-back LRU cache: partitions are spilled to
flat binary files in a private temporary directory once the resident
budget is exceeded, and transparently reloaded on access.  Partitions
are immutable, so a reload keeps the spill file: the resident copy is
*clean* and evicting it again is free (no rewrite).  Counters for
spills (actual writes), reloads, and clean evictions are exposed so
benchmarks can report I/O behaviour the way the paper reports disk
accesses; ``spill_count`` counts bytes-hitting-disk events only, never
the free re-evictions.  Clean spill files are also what checkpoint
resume (:mod:`repro.core.checkpoint`) adopts to avoid recomputing a
level's partitions from singletons.

A run is one process, and only the thread driving it touches its
store; the product kernel's pool threads compute partitions but never
store them.

Besides per-mask partitions, a store keeps *level blocks*
(:class:`~repro.partition.vectorized.LevelBlock`): the levelwise walk
over a relation of at most ``_DENSE_MAX_ROWS`` rows, at any schema
width, holds each level as one label matrix, stored, spilled, reloaded
and discarded as one entry
under the key ``-level`` (masks are never negative) through the same
``put`` / ``get`` / ``peek`` / ``discard``.  The disk store then writes a
level at a time, as the paper's TANE does.

When a tracer is active (see :mod:`repro.obs.trace`) every spill and
reload additionally emits a span carrying the mask and byte count, and
the resident-byte total is mirrored into a gauge — the raw material of
the per-level store-I/O columns in ``repro trace-report``.  With no
tracer active the instrumentation reduces to a module-flag check.
"""

from __future__ import annotations

import shutil
import struct
import tempfile
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Protocol

import numpy as np

from repro import _bitset
from repro.exceptions import ConfigurationError, DataError, PartitionMissingError
from repro.obs import trace as obs
from repro.partition.vectorized import LABEL_DTYPE, CsrPartition, LevelBlock
from repro.testing import faults

# Spill file layout: little-endian header (format tag, indices count,
# offsets count) followed by the two raw int32 arrays.  A flat binary
# format: spills happen once per partition eviction and TANE evicts
# hundreds of thousands of small partitions, so container formats (npz
# = a zip archive per file) are far too slow.  The tag names the
# layout, so a resume never adopts a spill of another format (the
# untagged int64 spills of earlier versions, or a foreign file).
_SPILL_HEADER = struct.Struct("<8sqq")
_SPILL_TAG = b"TANEi32\x01"
_SPILL_DTYPE = np.dtype(np.int32)

# Level-block spill layout: header (format tag, masks, rows, whether
# label rows follow, 64-bit words per mask), then the masks as
# little-endian words (repro._bitset.masks_to_words: one word, the
# int64 bytes, up to 63 attributes), the int64 ranks and, unless the
# block is rank-only, the int64 class counts and the int16 label
# matrix.  The tag of the earlier layout, which wrote int64 masks with
# no word count, was b"TANEblk\x01"; such a file is never adopted.
_BLOCK_HEADER = struct.Struct("<8sqqqq")
_BLOCK_TAG = b"TANEblk\x02"

__all__ = ["PartitionStore", "MemoryPartitionStore", "DiskPartitionStore", "make_store"]

# A stored entry: the partition of a mask (key >= 0) or the block of a
# level (key -level).
Entry = CsrPartition | LevelBlock


def _missing(key: int) -> PartitionMissingError:
    what = f"block stored for level {-key}" if key < 0 else f"partition stored for mask {key:#x}"
    return PartitionMissingError(f"no {what}")


class PartitionStore(Protocol):
    """Minimal interface the TANE driver needs from a partition store.

    Keys are attribute-set masks, whose entries are partitions, or
    ``-level`` for the block of a whole level.
    """

    def put(self, key: int, entry: Entry) -> None:
        """Store (or replace) the entry of ``key``."""

    def get(self, key: int) -> Entry:
        """Return the entry of ``key``.

        Absent keys raise
        :class:`~repro.exceptions.PartitionMissingError` (a
        ``DataError`` subclass that is also a ``KeyError`` for
        backward compatibility).
        """

    def peek(self, key: int) -> Entry | None:
        """The resident entry of ``key``, or ``None``.

        Never loads a spilled entry and leaves any recency order
        alone, so observers can read sizes without changing the run.
        """

    def discard(self, key: int) -> None:
        """Drop the entry of ``key`` if present."""

    def put_many(self, items: Iterable[tuple[int, CsrPartition]]) -> None:
        """Store a stream of ``(mask, partition)`` pairs as it arrives.

        The partition manager hands the executor's product stream
        straight to the store, so partitions become resident (and can
        spill) before later batches are computed.
        """

    def close(self) -> None:
        """Release all resources (files, memory)."""


class MemoryPartitionStore:
    """Keep every partition in main memory (the paper's TANE/MEM)."""

    def __init__(self) -> None:
        self._entries: dict[int, Entry] = {}
        self.peak_resident_bytes = 0
        self._resident_bytes = 0

    def _account(self, added: int, removed: int) -> None:
        self._resident_bytes += added - removed
        self.peak_resident_bytes = max(self.peak_resident_bytes, self._resident_bytes)
        if obs.enabled():
            obs.set_gauge("store.resident_bytes", self._resident_bytes)

    def put(self, key: int, entry: Entry) -> None:
        """Store (or replace) the entry of ``key``."""
        previous = self._entries.get(key)
        self._entries[key] = entry
        self._account(entry.nbytes(), 0 if previous is None else previous.nbytes())

    def get(self, key: int) -> Entry:
        """Return the entry of ``key``.

        Raises :class:`~repro.exceptions.PartitionMissingError` (a
        ``DataError`` that is also a ``KeyError``) when absent.
        """
        entry = self._entries.get(key)
        if entry is None:
            raise _missing(key)
        return entry

    def peek(self, key: int) -> Entry | None:
        """The entry of ``key``, or ``None`` when absent."""
        return self._entries.get(key)

    def discard(self, key: int) -> None:
        """Drop the entry of ``key`` if present (idempotent)."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._account(0, entry.nbytes())

    def put_many(self, items: Iterable[tuple[int, CsrPartition]]) -> None:
        """Store a stream of ``(mask, partition)`` pairs as it arrives."""
        for mask, partition in items:
            self.put(mask, partition)

    def close(self) -> None:
        """Release all held partitions and blocks."""
        self._entries.clear()
        self._resident_bytes = 0
        if obs.enabled():
            obs.set_gauge("store.resident_bytes", 0)

    def __len__(self) -> int:
        return len(self._entries)


class DiskPartitionStore:
    """Spill partitions to disk beyond a resident-memory budget.

    Parameters
    ----------
    resident_budget_bytes:
        Soft cap on the total in-memory partition bytes.  Least
        recently used partitions are written to disk when the cap is
        exceeded.  The paper's analysis assumes roughly the current and
        previous level stay accessible; a budget of a few partition
        sizes reproduces that behaviour.
    directory:
        Spill directory; a private temporary directory is created (and
        removed on :meth:`close`) when omitted.
    min_spill_bytes:
        Partitions smaller than this stay resident regardless of the
        budget.  The paper's disk variant performs "O(s) accesses of
        size O(|r|)" — it exists for the large-|r| regime; spilling a
        few-hundred-byte partition costs a file operation and saves
        almost nothing, so tiny partitions are pinned (making the
        budget advisory for workloads made only of tiny partitions).

    Level blocks share the budget, the LRU order and the counters with
    partitions: a block is the entry keyed ``-level``, spilled to
    ``level-<n>.bin``.
    """

    def __init__(
        self,
        resident_budget_bytes: int = 64 * 1024 * 1024,
        directory: str | Path | None = None,
        min_spill_bytes: int = 4096,
    ) -> None:
        if resident_budget_bytes <= 0:
            raise ConfigurationError("resident_budget_bytes must be positive")
        if min_spill_bytes < 0:
            raise ConfigurationError("min_spill_bytes must be non-negative")
        self._budget = resident_budget_bytes
        self._min_spill_bytes = min_spill_bytes
        self._owns_directory = directory is None
        self._directory = Path(directory) if directory is not None else Path(tempfile.mkdtemp(prefix="repro-partitions-"))
        self._directory.mkdir(parents=True, exist_ok=True)
        # Small (pinned) and large (spillable) entries live in
        # separate LRU maps so the spill loop never scans past pinned
        # entries — keeping put() amortized O(1) even when the pinned
        # set alone exceeds the budget.
        self._small: OrderedDict[int, Entry] = OrderedDict()
        self._large: OrderedDict[int, Entry] = OrderedDict()
        self._resident_bytes = 0
        # key -> (file, num_rows).  A key may be here *and* resident:
        # entries are immutable, so after a reload the resident copy
        # is clean and its spill file stays valid — evicting it again
        # costs nothing (see _spill_lru).
        self._on_disk: dict[int, tuple[Path, int]] = {}
        self.spill_count = 0
        """Entries (partitions or level blocks) actually written to
        disk.  Free re-evictions of clean entries are counted in
        :attr:`clean_evictions`, not here."""
        self.load_count = 0
        self.clean_evictions = 0
        """Evictions satisfied by an existing clean spill file (no
        write performed)."""
        self.peak_resident_bytes = 0
        self.peak_disk_bytes = 0
        self._disk_bytes = 0
        self.preserve_spill_files = False
        """When true, :meth:`close` keeps the spill files on disk (the
        TANE driver sets this when a checkpointed run fails, so resume
        can adopt the files instead of recomputing partitions)."""

    # -- internal -------------------------------------------------------

    def _path_for(self, key: int) -> Path:
        if key < 0:
            return self._directory / f"level-{-key}.bin"
        return self._directory / f"partition-{key:x}.bin"

    @staticmethod
    def _span_attributes(key: int) -> dict[str, int]:
        return {"level": -key} if key < 0 else {"mask": key}

    def _spill_lru(self) -> None:
        while self._resident_bytes > self._budget and self._large:
            key, item = self._large.popitem(last=False)
            self._resident_bytes -= item.nbytes()
            if key in self._on_disk:
                # Clean: entries are immutable and put() invalidates
                # the disk copy on replacement, so an entry present in
                # _on_disk is byte-identical to the resident one —
                # dropping the memory copy is the whole eviction.
                self.clean_evictions += 1
                continue
            path = self._path_for(key)
            faults.check("store.spill")
            with obs.span("store.spill", **self._span_attributes(key)) as span:
                with path.open("wb") as handle:
                    if key < 0:
                        size = _write_block(handle, item)
                    else:
                        size = _write_partition(handle, item)
                span.set("bytes", size)
                span.set("resident_bytes", self._resident_bytes)
            self._on_disk[key] = (path, item.num_rows)
            self._disk_bytes += size
            self.peak_disk_bytes = max(self.peak_disk_bytes, self._disk_bytes)
            self.spill_count += 1
        if obs.enabled():
            obs.set_gauge("store.resident_bytes", self._resident_bytes)

    def _insert_resident(self, key: int, item: Entry) -> None:
        """Make ``item`` resident without touching its disk copy."""
        if item.nbytes() >= self._min_spill_bytes:
            self._large[key] = item
        else:
            self._small[key] = item
        self._resident_bytes += item.nbytes()
        self.peak_resident_bytes = max(self.peak_resident_bytes, self._resident_bytes)
        self._spill_lru()

    def _read_spill(self, path: Path, mask: int, num_rows: int) -> CsrPartition:
        """Load one partition spill file, surfacing damage as :class:`DataError`.

        A truncated or corrupted file, or one of another format, names
        the file and mask instead of leaking a raw ``struct.error`` or a
        short-read numpy shape mismatch from deep inside the loader.
        """
        where = f"spill file {path} for mask {mask:#x}"
        with _reading(path, where) as handle:
            tag, indices_count, offsets_count = _read_header(
                handle, _SPILL_HEADER, _SPILL_TAG, where
            )
            if indices_count < 0 or offsets_count < 1:
                raise DataError(
                    f"corrupt {where}: implausible header "
                    f"(indices={indices_count}, offsets={offsets_count})"
                )
            raw_payload = _read_exactly(
                handle, (indices_count + offsets_count) * _SPILL_DTYPE.itemsize, where
            )
        indices = np.frombuffer(raw_payload, dtype=_SPILL_DTYPE, count=indices_count)
        offsets = np.frombuffer(
            raw_payload, dtype=_SPILL_DTYPE, offset=indices_count * _SPILL_DTYPE.itemsize
        )
        if (
            offsets[0] != 0
            or offsets[-1] != indices_count
            or np.any(np.diff(offsets) < 0)
        ):
            raise DataError(
                f"corrupt {where}: "
                "offsets are not a monotone 0..len(indices) sequence"
            )
        return CsrPartition(indices, offsets, num_rows)

    def _read_block(self, path: Path, level: int, num_rows: int) -> LevelBlock:
        """Load one level-block spill file (damage raises :class:`DataError`)."""
        where = f"spill file {path} for level {level}"
        with _reading(path, where) as handle:
            count, rows, has_labels, words = _read_header(
                handle, _BLOCK_HEADER, _BLOCK_TAG, where
            )[1:]
            if count < 0 or rows != num_rows or has_labels not in (0, 1) or words < 1:
                raise DataError(
                    f"corrupt {where}: implausible header "
                    f"(masks={count}, rows={rows}, labels={has_labels}, words={words})"
                )
            row_bytes = 8 * (words + 1)
            if has_labels:
                row_bytes += 8 + LABEL_DTYPE.itemsize * rows
            raw = _read_exactly(handle, count * row_bytes, where)

        def int64_array(index: int) -> np.ndarray:
            offset = 8 * count * (words + index)
            return np.frombuffer(raw, dtype=np.int64, count=count, offset=offset)

        masks = _bitset.masks_from_words(
            np.frombuffer(raw, dtype="<u8", count=count * words).reshape(count, words)
        )
        errors = int64_array(0)
        classes = labels = None
        if has_labels:
            classes = int64_array(1)
            labels = np.frombuffer(
                raw, dtype=LABEL_DTYPE, offset=8 * count * (words + 2)
            ).reshape(count, rows)
        if count > 1 and np.any(masks[1:] <= masks[:-1]):
            raise DataError(f"corrupt {where}: masks do not ascend")
        return LevelBlock(masks, labels, classes, errors, num_rows)

    def _register_spill(self, key: int, path: Path, num_rows: int) -> None:
        self._on_disk[key] = (path, num_rows)
        self._disk_bytes += path.stat().st_size
        self.peak_disk_bytes = max(self.peak_disk_bytes, self._disk_bytes)

    # -- PartitionStore interface ----------------------------------------

    def put(self, key: int, entry: Entry) -> None:
        """Store the entry resident; spill LRU entries over budget.

        Replacing a key invalidates any disk copy of the old entry
        (the clean-spill optimization relies on a disk entry always
        matching the resident bytes).
        """
        self.discard(key)
        self._insert_resident(key, entry)

    def get(self, key: int) -> Entry:
        """Return the entry, reloading from disk when spilled.

        The spill file is *kept* on reload: entries are immutable, so
        the resident copy stays clean and evicting it again later is
        free.  Raises :class:`~repro.exceptions.PartitionMissingError`
        when the key is unknown and :class:`~repro.exceptions.DataError`
        when its spill file is truncated or corrupt.
        """
        entry = self._small.get(key)
        if entry is not None:
            self._small.move_to_end(key)
            return entry
        entry = self._large.get(key)
        if entry is not None:
            self._large.move_to_end(key)
            return entry
        spilled = self._on_disk.get(key)
        if spilled is None:
            raise _missing(key)
        path, num_rows = spilled
        faults.check("store.load")
        with obs.span("store.load", **self._span_attributes(key)) as span:
            if key < 0:
                entry = self._read_block(path, -key, num_rows)
                span.set("bytes", _BLOCK_HEADER.size + entry.nbytes())
            else:
                entry = self._read_spill(path, key, num_rows)
                span.set("bytes", _SPILL_HEADER.size + entry.nbytes())
        self.load_count += 1
        self._insert_resident(key, entry)
        return entry

    def peek(self, key: int) -> Entry | None:
        """The resident entry of ``key``, or ``None`` (spilled or
        absent); neither loads nor refreshes the LRU position."""
        entry = self._small.get(key)
        return entry if entry is not None else self._large.get(key)

    def discard(self, key: int) -> None:
        """Drop the entry wherever it lives (idempotent).

        A reloaded entry lives both resident and on disk; both copies
        are removed.
        """
        entry = self._small.pop(key, None)
        if entry is None:
            entry = self._large.pop(key, None)
        if entry is not None:
            self._resident_bytes -= entry.nbytes()
            if obs.enabled():
                obs.set_gauge("store.resident_bytes", self._resident_bytes)
        spilled = self._on_disk.pop(key, None)
        if spilled is not None:
            path, _ = spilled
            try:
                self._disk_bytes -= path.stat().st_size
            except OSError:
                pass
            path.unlink(missing_ok=True)

    def adopt_spilled(self, mask: int, num_rows: int) -> bool:
        """Register a pre-existing spill file for ``mask`` if one exists.

        Checkpoint resume calls this to reuse the spill files a
        crashed run left behind instead of recomputing partitions from
        singletons.  Returns ``True`` when the store now holds the
        mask (already present, or a spill file was adopted).  Only the
        header is read here: a file without this version's format tag
        is not adopted (``False``, so the caller recomputes); the
        payload is validated lazily on first :meth:`get`.
        """
        if mask in self._small or mask in self._large or mask in self._on_disk:
            return True
        path = self._path_for(mask)
        try:
            with path.open("rb") as handle:
                tag = handle.read(len(_SPILL_TAG))
        except OSError:
            return False
        if tag != _SPILL_TAG:
            return False
        self._register_spill(mask, path, num_rows)
        return True

    def adopt_spilled_block(
        self, level: int, masks: np.ndarray, num_rows: int, *, ranks_only: bool = False
    ) -> bool:
        """Register a crashed run's spill file of ``level`` if it holds
        exactly ``masks`` (and label rows, unless ``ranks_only``).

        The header and the masks are read here and compared in the
        spill's own encoding (:func:`~repro._bitset.masks_to_words`);
        any mismatch, foreign format or damage leaves the file
        unadopted (``False``) for the caller to recompute the level.
        """
        key = -level
        if key in self._small or key in self._large or key in self._on_disk:
            return True
        path = self._path_for(key)
        try:
            with path.open("rb") as handle:
                header = handle.read(_BLOCK_HEADER.size)
                if len(header) != _BLOCK_HEADER.size:
                    return False
                tag, count, rows, has_labels, words = _BLOCK_HEADER.unpack(header)
                expected = _bitset.masks_to_words(masks)
                if (
                    tag != _BLOCK_TAG
                    or (count, words) != expected.shape
                    or rows != num_rows
                    or not (has_labels or ranks_only)
                ):
                    return False
                stored = handle.read(expected.nbytes)
        except OSError:
            return False
        if stored != expected.tobytes():
            return False
        self._register_spill(key, path, num_rows)
        return True

    def put_many(self, items: Iterable[tuple[int, CsrPartition]]) -> None:
        """Store a stream of ``(mask, partition)`` pairs as it arrives.

        Each put may trigger LRU spills, so streaming keeps the
        resident set bounded while a level is still producing
        partitions.
        """
        for mask, partition in items:
            self.put(mask, partition)

    def close(self) -> None:
        """Drop everything; remove or empty the spill directory.

        When the store created its own temporary directory the whole
        tree is removed.  With a caller-supplied ``directory`` the
        directory itself is preserved but every spill file this store
        wrote is unlinked — otherwise ``partition-*.bin`` and
        ``level-*.bin`` files would leak across runs sharing a spill
        directory.  With :attr:`preserve_spill_files` set (a failed
        checkpointed run) the files survive for resume to adopt.
        """
        self._small.clear()
        self._large.clear()
        self._resident_bytes = 0
        if self.preserve_spill_files:
            self._on_disk.clear()
        elif self._owns_directory:
            self._on_disk.clear()
            shutil.rmtree(self._directory, ignore_errors=True)
        else:
            for path, _ in self._on_disk.values():
                path.unlink(missing_ok=True)
            self._on_disk.clear()
        self._disk_bytes = 0
        if obs.enabled():
            obs.set_gauge("store.resident_bytes", 0)

    def __len__(self) -> int:
        return len(self._small) + len(self._large) + len(self._on_disk)


def _write_partition(handle, partition: CsrPartition) -> int:
    """Write one partition spill; return its size in bytes."""
    indices, offsets = partition.export_buffers()
    handle.write(_SPILL_HEADER.pack(_SPILL_TAG, indices.size, offsets.size))
    handle.write(indices.tobytes())
    handle.write(offsets.tobytes())
    return _SPILL_HEADER.size + indices.nbytes + offsets.nbytes


def _write_block(handle, block: LevelBlock) -> int:
    """Write one level-block spill; return its size in bytes."""
    words = _bitset.masks_to_words(block.masks)
    arrays = [words, block.errors]
    if block.labels is not None:
        arrays += [block.classes, block.labels]
    handle.write(
        _BLOCK_HEADER.pack(
            _BLOCK_TAG, len(block), block.num_rows, block.labels is not None, words.shape[1]
        )
    )
    for array in arrays:
        handle.write(np.ascontiguousarray(array).tobytes())
    return _BLOCK_HEADER.size + sum(array.nbytes for array in arrays)


@contextmanager
def _reading(path: Path, where: str) -> Iterator:
    """Open a spill file for reading; an ``OSError`` becomes a
    :class:`DataError` naming the file."""
    try:
        handle = path.open("rb")
    except OSError as error:
        raise DataError(f"cannot read {where}: {error}") from error
    with handle:
        yield handle


def _read_exactly(handle, size: int, where: str) -> bytes:
    try:
        raw = handle.read(size)
    except OSError as error:
        raise DataError(f"cannot read {where}: {error}") from error
    if len(raw) != size:
        raise DataError(f"corrupt {where}: truncated payload ({len(raw)} of {size} bytes)")
    return raw


def _read_header(handle, header: struct.Struct, tag: bytes, where: str) -> tuple:
    try:
        raw = handle.read(header.size)
    except OSError as error:
        raise DataError(f"cannot read {where}: {error}") from error
    if len(raw) != header.size:
        raise DataError(
            f"corrupt {where}: truncated header ({len(raw)} of {header.size} bytes)"
        )
    fields = header.unpack(raw)
    if fields[0] != tag:
        raise DataError(
            f"corrupt {where}: implausible header "
            f"(format tag {fields[0]!r}, expected {tag!r})"
        )
    return fields


def make_store(kind: str = "memory", **options: object) -> MemoryPartitionStore | DiskPartitionStore:
    """Create a partition store by name: ``"memory"`` or ``"disk"``."""
    if kind == "memory":
        if options:
            raise ConfigurationError(f"memory store takes no options, got {sorted(options)}")
        return MemoryPartitionStore()
    if kind == "disk":
        return DiskPartitionStore(**options)  # type: ignore[arg-type]
    raise ConfigurationError(f"unknown partition store kind {kind!r}; use 'memory' or 'disk'")
