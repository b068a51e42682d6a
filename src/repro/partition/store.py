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
from collections.abc import Iterable
from pathlib import Path
from typing import Protocol

import numpy as np

from repro.exceptions import ConfigurationError, DataError, PartitionMissingError
from repro.obs import trace as obs
from repro.partition.vectorized import CsrPartition
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

__all__ = ["PartitionStore", "MemoryPartitionStore", "DiskPartitionStore", "make_store"]


class PartitionStore(Protocol):
    """Minimal interface the TANE driver needs from a partition store."""

    def put(self, mask: int, partition: CsrPartition) -> None:
        """Store the partition of attribute set ``mask``."""

    def get(self, mask: int) -> CsrPartition:
        """Return the partition of ``mask``.

        Absent masks raise
        :class:`~repro.exceptions.PartitionMissingError` (a
        ``DataError`` subclass that is also a ``KeyError`` for
        backward compatibility).
        """

    def discard(self, mask: int) -> None:
        """Drop the partition of ``mask`` if present."""

    def put_many(self, items: Iterable[tuple[int, CsrPartition]]) -> None:
        """Store a stream of ``(mask, partition)`` pairs as it arrives.

        The parallel driver hands the pool's result stream straight to
        the store, so partitions become resident (and can spill) while
        later shards are still computing.
        """

    def close(self) -> None:
        """Release all resources (files, memory)."""


class MemoryPartitionStore:
    """Keep every partition in main memory (the paper's TANE/MEM)."""

    def __init__(self) -> None:
        self._partitions: dict[int, CsrPartition] = {}
        self.peak_resident_bytes = 0
        self._resident_bytes = 0

    def put(self, mask: int, partition: CsrPartition) -> None:
        """Store (or replace) the partition of attribute set ``mask``."""
        previous = self._partitions.get(mask)
        if previous is not None:
            self._resident_bytes -= previous.nbytes()
        self._partitions[mask] = partition
        self._resident_bytes += partition.nbytes()
        self.peak_resident_bytes = max(self.peak_resident_bytes, self._resident_bytes)
        if obs.enabled():
            obs.set_gauge("store.resident_bytes", self._resident_bytes)

    def get(self, mask: int) -> CsrPartition:
        """Return the partition of ``mask``.

        Raises :class:`~repro.exceptions.PartitionMissingError` (a
        ``DataError`` that is also a ``KeyError``) when absent.
        """
        partition = self._partitions.get(mask)
        if partition is None:
            raise PartitionMissingError(f"no partition stored for mask {mask:#x}")
        return partition

    def discard(self, mask: int) -> None:
        """Drop the partition of ``mask`` if present (idempotent)."""
        partition = self._partitions.pop(mask, None)
        if partition is not None:
            self._resident_bytes -= partition.nbytes()
            if obs.enabled():
                obs.set_gauge("store.resident_bytes", self._resident_bytes)

    def put_many(self, items: Iterable[tuple[int, CsrPartition]]) -> None:
        """Store a stream of ``(mask, partition)`` pairs as it arrives."""
        for mask, partition in items:
            self.put(mask, partition)

    def close(self) -> None:
        """Release all held partitions."""
        self._partitions.clear()
        self._resident_bytes = 0
        if obs.enabled():
            obs.set_gauge("store.resident_bytes", 0)

    def __len__(self) -> int:
        return len(self._partitions)


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
        # Small (pinned) and large (spillable) partitions live in
        # separate LRU maps so the spill loop never scans past pinned
        # entries — keeping put() amortized O(1) even when the pinned
        # set alone exceeds the budget.
        self._small: OrderedDict[int, CsrPartition] = OrderedDict()
        self._large: OrderedDict[int, CsrPartition] = OrderedDict()
        self._resident_bytes = 0
        # mask -> (file, num_rows).  A mask may be here *and* resident:
        # partitions are immutable, so after a reload the resident copy
        # is clean and its spill file stays valid — evicting it again
        # costs nothing (see _spill_lru).
        self._on_disk: dict[int, tuple[Path, int]] = {}
        self.spill_count = 0
        """Partitions actually written to disk.  Free re-evictions of
        clean partitions are counted in :attr:`clean_evictions`, not
        here."""
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

    def _path_for(self, mask: int) -> Path:
        return self._directory / f"partition-{mask:x}.bin"

    def _spill_lru(self) -> None:
        while self._resident_bytes > self._budget and self._large:
            mask, partition = self._large.popitem(last=False)
            self._resident_bytes -= partition.nbytes()
            if mask in self._on_disk:
                # Clean: partitions are immutable and put() invalidates
                # the disk copy on replacement, so an entry present in
                # _on_disk is byte-identical to the resident one —
                # dropping the memory copy is the whole eviction.
                self.clean_evictions += 1
                continue
            path = self._path_for(mask)
            faults.check("store.spill")
            with obs.span("store.spill", mask=mask) as span:
                indices, offsets = partition.export_buffers()
                with path.open("wb") as handle:
                    handle.write(_SPILL_HEADER.pack(_SPILL_TAG, indices.size, offsets.size))
                    handle.write(indices.tobytes())
                    handle.write(offsets.tobytes())
                size = _SPILL_HEADER.size + indices.nbytes + offsets.nbytes
                span.set("bytes", size)
                span.set("resident_bytes", self._resident_bytes)
            self._on_disk[mask] = (path, partition.num_rows)
            self._disk_bytes += size
            self.peak_disk_bytes = max(self.peak_disk_bytes, self._disk_bytes)
            self.spill_count += 1
        if obs.enabled():
            obs.set_gauge("store.resident_bytes", self._resident_bytes)

    def _insert_resident(self, mask: int, partition: CsrPartition) -> None:
        """Make ``partition`` resident without touching its disk copy."""
        if partition.nbytes() >= self._min_spill_bytes:
            self._large[mask] = partition
        else:
            self._small[mask] = partition
        self._resident_bytes += partition.nbytes()
        self.peak_resident_bytes = max(self.peak_resident_bytes, self._resident_bytes)
        self._spill_lru()

    def _read_spill(self, path: Path, mask: int, num_rows: int) -> CsrPartition:
        """Load one spill file, surfacing damage as :class:`DataError`.

        A truncated or corrupted file, or one of another format, names
        the file and mask instead of leaking a raw ``struct.error`` or a
        short-read numpy shape mismatch from deep inside the loader.
        """
        try:
            with path.open("rb") as handle:
                raw_header = handle.read(_SPILL_HEADER.size)
                if len(raw_header) != _SPILL_HEADER.size:
                    raise DataError(
                        f"corrupt spill file {path} for mask {mask:#x}: "
                        f"truncated header ({len(raw_header)} of "
                        f"{_SPILL_HEADER.size} bytes)"
                    )
                tag, indices_count, offsets_count = _SPILL_HEADER.unpack(raw_header)
                if tag != _SPILL_TAG:
                    raise DataError(
                        f"corrupt spill file {path} for mask {mask:#x}: "
                        f"implausible header (format tag {tag!r}, "
                        f"expected {_SPILL_TAG!r})"
                    )
                if indices_count < 0 or offsets_count < 1:
                    raise DataError(
                        f"corrupt spill file {path} for mask {mask:#x}: "
                        f"implausible header (indices={indices_count}, "
                        f"offsets={offsets_count})"
                    )
                expected = (indices_count + offsets_count) * _SPILL_DTYPE.itemsize
                raw_payload = handle.read(expected)
                if len(raw_payload) != expected:
                    raise DataError(
                        f"corrupt spill file {path} for mask {mask:#x}: "
                        f"truncated payload ({len(raw_payload)} of {expected} bytes)"
                    )
        except OSError as error:
            raise DataError(
                f"cannot read spill file {path} for mask {mask:#x}: {error}"
            ) from error
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
                f"corrupt spill file {path} for mask {mask:#x}: "
                "offsets are not a monotone 0..len(indices) sequence"
            )
        return CsrPartition(indices, offsets, num_rows)

    # -- PartitionStore interface ----------------------------------------

    def put(self, mask: int, partition: CsrPartition) -> None:
        """Store the partition resident; spill LRU entries over budget.

        Replacing a mask invalidates any disk copy of the old
        partition (the clean-spill optimization relies on a disk entry
        always matching the resident bytes).
        """
        self.discard(mask)
        self._insert_resident(mask, partition)

    def get(self, mask: int) -> CsrPartition:
        """Return the partition, reloading from disk when spilled.

        The spill file is *kept* on reload: partitions are immutable,
        so the resident copy stays clean and evicting it again later
        is free.  Raises
        :class:`~repro.exceptions.PartitionMissingError` when the mask
        is unknown and :class:`~repro.exceptions.DataError` when its
        spill file is truncated or corrupt.
        """
        partition = self._small.get(mask)
        if partition is not None:
            self._small.move_to_end(mask)
            return partition
        partition = self._large.get(mask)
        if partition is not None:
            self._large.move_to_end(mask)
            return partition
        entry = self._on_disk.get(mask)
        if entry is None:
            raise PartitionMissingError(f"no partition stored for mask {mask:#x}")
        path, num_rows = entry
        faults.check("store.load")
        with obs.span("store.load", mask=mask) as span:
            partition = self._read_spill(path, mask, num_rows)
            span.set("bytes", _SPILL_HEADER.size + partition.nbytes())
        self.load_count += 1
        self._insert_resident(mask, partition)
        return partition

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
            size = path.stat().st_size
        except OSError:
            return False
        if tag != _SPILL_TAG:
            return False
        self._on_disk[mask] = (path, num_rows)
        self._disk_bytes += size
        self.peak_disk_bytes = max(self.peak_disk_bytes, self._disk_bytes)
        return True

    def discard(self, mask: int) -> None:
        """Drop the partition wherever it lives (idempotent).

        A reloaded partition lives both resident and on disk; both
        copies are removed.
        """
        partition = self._small.pop(mask, None)
        if partition is None:
            partition = self._large.pop(mask, None)
        if partition is not None:
            self._resident_bytes -= partition.nbytes()
            if obs.enabled():
                obs.set_gauge("store.resident_bytes", self._resident_bytes)
        entry = self._on_disk.pop(mask, None)
        if entry is not None:
            path, _ = entry
            try:
                self._disk_bytes -= path.stat().st_size
            except OSError:
                pass
            path.unlink(missing_ok=True)

    def put_many(self, items: Iterable[tuple[int, CsrPartition]]) -> None:
        """Store a stream of ``(mask, partition)`` pairs as it arrives.

        Each put may trigger LRU spills, so streaming keeps the
        resident set bounded even while a parallel level is still
        producing partitions.
        """
        for mask, partition in items:
            self.put(mask, partition)

    def close(self) -> None:
        """Drop everything; remove or empty the spill directory.

        When the store created its own temporary directory the whole
        tree is removed.  With a caller-supplied ``directory`` the
        directory itself is preserved but every spill file this store
        wrote is unlinked — otherwise ``partition-*.bin`` files would
        leak across runs sharing a spill directory.  With
        :attr:`preserve_spill_files` set (a failed checkpointed run)
        the files survive for resume to adopt.
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


def make_store(kind: str = "memory", **options: object) -> MemoryPartitionStore | DiskPartitionStore:
    """Create a partition store by name: ``"memory"`` or ``"disk"``."""
    if kind == "memory":
        if options:
            raise ConfigurationError(f"memory store takes no options, got {sorted(options)}")
        return MemoryPartitionStore()
    if kind == "disk":
        return DiskPartitionStore(**options)  # type: ignore[arg-type]
    raise ConfigurationError(f"unknown partition store kind {kind!r}; use 'memory' or 'disk'")
