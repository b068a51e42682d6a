"""Zero-copy shipment of CSR partitions via ``multiprocessing.shared_memory``.

A level's partitions are packed into **one** shared-memory segment: a
single flat ``int32`` area holding every partition's ``indices`` and
``offsets`` back to back, plus a small picklable *directory* mapping
each attribute-set mask to its slice positions.  Workers attach the
segment once and reconstruct :class:`~repro.partition.vectorized.CsrPartition`
views directly over the shared buffer — no bytes are copied on either
side of the fork, which is what makes sharding the O(|r|) hot loops
worthwhile for large relations.

The executor (:mod:`repro.parallel.executor`) ships one block per
phase holding only the masks not already resident, so a worker
references several live blocks at once — the previous level's
partitions through segments it already has attached, new masks
through the fresh block.  Workers keep an LRU of attached segments
sized for that pattern (a mapped segment stays valid after the parent
unlinks it, so eviction is only about address-space hygiene).
"""

from __future__ import annotations

from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Mapping

import numpy as np

from repro.partition.vectorized import INDEX_DTYPE, CsrPartition

__all__ = [
    "AdoptedBlock",
    "BlockEntry",
    "SharedPartitionBlock",
    "attached_partition",
    "detach_all",
]

# (indices_start, indices_size, offsets_start, offsets_size, num_rows),
# all in int32 *elements* relative to the block's flat array.
BlockEntry = tuple[int, int, int, int, int]

# The flat area has the partitions' own index dtype, so attaching a
# partition over it is zero-copy.
_ITEMSIZE = INDEX_DTYPE.itemsize


class SharedPartitionBlock:
    """Parent-side packing of partitions into one shared segment.

    Parameters
    ----------
    partitions:
        ``mask -> CsrPartition`` for every partition the level's tasks
        reference.  The block is immutable once built.
    """

    def __init__(self, partitions: Mapping[int, CsrPartition]) -> None:
        total = sum(
            partition.stripped_size + partition.num_classes + 1
            for partition in partitions.values()
        )
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(total, 1) * _ITEMSIZE
        )
        directory: dict[int, BlockEntry] = {}
        try:
            flat = np.ndarray((total,), dtype=INDEX_DTYPE, buffer=self._shm.buf)
            cursor = 0
            for mask, partition in partitions.items():
                indices, offsets = partition.export_buffers()
                flat[cursor:cursor + indices.size] = indices
                indices_start, cursor = cursor, cursor + int(indices.size)
                flat[cursor:cursor + offsets.size] = offsets
                offsets_start, cursor = cursor, cursor + int(offsets.size)
                directory[mask] = (
                    indices_start,
                    int(indices.size),
                    offsets_start,
                    int(offsets.size),
                    partition.num_rows,
                )
        except BaseException:
            # No caller ever sees this block, so nothing else would
            # unlink the segment.  Drop the view first: a live buffer
            # export makes closing the mapping raise BufferError.
            flat = None
            self.close()
            raise
        self.directory = directory
        self.nbytes = total * _ITEMSIZE

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._shm.name

    def subset(self, masks) -> dict[int, BlockEntry]:
        """Directory restricted to ``masks`` (keeps chunk pickles small)."""
        return {mask: self.directory[mask] for mask in set(masks)}

    def detach(self) -> None:
        """Close this process's mapping *without* unlinking the name.

        The result-block handoff: a worker builds a block, detaches,
        and ships ``(name, directory, nbytes)`` in its receipt — the
        parent adopts the segment (:class:`AdoptedBlock`) and owns the
        unlink from then on.
        """
        self._shm.close()

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked
            pass


class AdoptedBlock:
    """Parent-side adoption of a block a *worker* created.

    Workers pack large chunk results into a fresh segment instead of
    pickling multi-megabyte CSR arrays through the result pipe (the
    dominant cost of a products phase at scale).  The receipt carries
    ``(name, directory, nbytes)``; the parent attaches zero-copy and
    takes over the segment's lifetime, closing and unlinking exactly
    as it would for a block it packed itself.
    """

    def __init__(
        self, name: str, directory: Mapping[int, BlockEntry], nbytes: int
    ) -> None:
        self._shm = _attach_untracked(name)
        self._flat: np.ndarray | None = np.ndarray(
            (self._shm.size // _ITEMSIZE,), dtype=INDEX_DTYPE, buffer=self._shm.buf
        )
        self.directory = dict(directory)
        self.nbytes = nbytes

    @property
    def name(self) -> str:
        return self._shm.name

    def partition(self, mask: int) -> CsrPartition:
        """A zero-copy :class:`CsrPartition` view over the segment."""
        if self._flat is None:
            raise ValueError("block is closed")
        indices_start, indices_size, offsets_start, offsets_size, num_rows = (
            self.directory[mask]
        )
        return CsrPartition.attach(
            self._flat[indices_start:indices_start + indices_size],
            self._flat[offsets_start:offsets_start + offsets_size],
            num_rows,
        )

    def subset(self, masks) -> dict[int, BlockEntry]:
        """Directory restricted to ``masks`` (keeps chunk pickles small)."""
        return {mask: self.directory[mask] for mask in set(masks)}

    def close(self) -> None:
        """Drop the mapping and unlink the name (idempotent, tolerant).

        Unlike the parent-packed block, partitions handed out by
        :meth:`partition` are live views over the mapping — if one is
        still referenced somewhere (a store teardown racing a partial
        stream), closing the mapping raises ``BufferError``.  The name
        must not leak either way, so unlink regardless; the memory
        itself is reclaimed when the last view dies (process exit at
        the latest).
        """
        self._flat = None
        try:
            self._shm.close()
        except BufferError:
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked
            pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

# Delta shipping keeps roughly one live block per recent level (new
# masks only) instead of one fat block per phase; workers therefore
# hold more, smaller attachments.  Released blocks age out of the LRU.
_MAX_ATTACHED = 16

# block name -> (segment, its int32 view, {mask -> reconstructed partition}).
# Reconstructed partitions are cached because their label/probe-table
# caches are what make repeated products against the same factor cheap.
_attached: OrderedDict[
    str, tuple[shared_memory.SharedMemory, np.ndarray, dict[int, CsrPartition]]
] = OrderedDict()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    Before Python 3.13 (``track=False``), every attachment registers
    the segment with the resource tracker — whose per-type cache is a
    *set* shared by all of a pool's workers, so the parent's
    create-time registration and N attach-time registrations collapse
    into one entry and the unregisters tear it down N times (cpython
    bpo-39959).  Attachments are not ours to clean up; suppress the
    registration for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


def _attach(name: str) -> tuple[np.ndarray, dict[int, CsrPartition]]:
    entry = _attached.get(name)
    if entry is not None:
        _attached.move_to_end(name)
        return entry[1], entry[2]
    segment = _attach_untracked(name)
    flat = np.ndarray((segment.size // _ITEMSIZE,), dtype=INDEX_DTYPE, buffer=segment.buf)
    _attached[name] = (segment, flat, {})
    while len(_attached) > _MAX_ATTACHED:
        _evict(next(iter(_attached)))
    return flat, _attached[name][2]


def _evict(name: str) -> None:
    segment, _, partitions = _attached.pop(name)
    partitions.clear()
    segment.close()


def attached_partition(name: str, mask: int, entry: BlockEntry) -> CsrPartition:
    """Reconstruct (and cache) one partition from an attached block."""
    flat, partitions = _attach(name)
    partition = partitions.get(mask)
    if partition is None:
        indices_start, indices_size, offsets_start, offsets_size, num_rows = entry
        partition = CsrPartition.attach(
            flat[indices_start:indices_start + indices_size],
            flat[offsets_start:offsets_start + offsets_size],
            num_rows,
        )
        partitions[mask] = partition
    return partition


def detach_all() -> None:
    """Drop every cached attachment (tests / worker shutdown)."""
    for name in list(_attached):
        _evict(name)
