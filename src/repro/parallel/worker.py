"""Process-pool entry points for the sharded level loops.

A chunk is a self-contained, picklable unit of work: a *directory*
mapping each mask the chunk touches to the shared-memory block (by
name) and slice entry where it lives, plus the task list.  One chunk
may reference several blocks: the executor keeps the previous level's
partitions resident in already-attached segments while only new masks
arrive in a fresh block.  Workers are stateless between runs except
for two deliberate caches:

* one :class:`~repro.partition.vectorized.PartitionWorkspace` per
  worker process (per row count) — the probe array TANE reuses across
  every product and g3 computation;
* the attached-segment / reconstructed-partition cache in
  :mod:`repro.parallel.shm`.

Results carry the worker's pid and busy seconds so the driver can
aggregate per-worker statistics into
:class:`~repro.core.results.SearchStatistics`.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

import numpy as np

from repro.parallel.shm import BlockEntry, SharedPartitionBlock, attached_partition
from repro.partition.vectorized import PartitionWorkspace, batched_products
from repro.search.measures import ValidityCriteria, ValidityOutcome, evaluate_validity
from repro.testing import faults

__all__ = ["ProductChunk", "ValidityChunk", "ChunkReceipt", "init_worker", "run_chunk"]

# Each mask's shared-memory location: ``(block_name, entry)``.
Directory = dict[int, tuple[str, BlockEntry]]

# Below this many result bytes a chunk's products travel as a pickled
# payload — the pipe handles kilobytes fine, and a shared segment per
# tiny chunk would just churn /dev/shm.  At or above it, the worker
# packs the products into a block and ships only its directory.
_RESULT_BLOCK_MIN_BYTES = 1 << 20


def init_worker() -> None:
    """Pool initializer: leave interrupt handling to the parent.

    A terminal Ctrl-C delivers SIGINT to the whole foreground process
    group — parent *and* forked workers.  If workers die mid-queue the
    parent deadlocks waiting on the result pipe; ignoring SIGINT here
    lets the parent take the KeyboardInterrupt and tear the pool down
    (``ProcessLevelExecutor.close`` terminates, not joins).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@dataclass(frozen=True)
class ProductChunk:
    """A shard of GENERATE-NEXT-LEVEL's partition products."""

    directory: Directory
    num_rows: int
    triples: tuple[tuple[int, int, int], ...]
    """``(candidate, factor_x, factor_y)`` as produced by
    :func:`repro.core.lattice.generate_next_level`."""


@dataclass(frozen=True)
class ValidityChunk:
    """A shard of COMPUTE-DEPENDENCIES' validity tests."""

    directory: Directory
    criteria: ValidityCriteria
    tasks: tuple[tuple[int, int], ...]
    """``(whole_mask, lhs_mask)`` pairs, in level order."""


@dataclass(frozen=True)
class ChunkReceipt:
    """One chunk's results plus worker telemetry."""

    pid: int
    seconds: float
    payload: list
    """Products: ``[(candidate, indices, offsets), ...]`` inline, or
    ``[candidate, ...]`` when ``block`` is set; validity:
    ``[ValidityOutcome, ...]`` — all in task order."""
    block: tuple[str, dict[int, BlockEntry], int] | None = None
    """``(name, directory, nbytes)`` of a worker-created result block.
    The worker has already detached its mapping; the receiving parent
    adopts the segment and owns the unlink.  ``None`` for inline
    payloads and all validity chunks."""


_workspaces: dict[int, PartitionWorkspace] = {}


def _workspace(num_rows: int) -> PartitionWorkspace:
    workspace = _workspaces.get(num_rows)
    if workspace is None:
        # One workspace per worker (per row count); TANE runs touch a
        # single relation, so this holds exactly one probe array.
        _workspaces.clear()
        workspace = _workspaces.setdefault(num_rows, PartitionWorkspace(num_rows))
    return workspace


def _resolve(directory: Directory, mask: int):
    block_name, entry = directory[mask]
    return attached_partition(block_name, mask, entry)


def _run_products(
    chunk: ProductChunk,
) -> tuple[list, tuple[str, dict[int, BlockEntry], int] | None]:
    workspace = _workspace(chunk.num_rows)
    pairs = [
        (_resolve(chunk.directory, x), _resolve(chunk.directory, y))
        for _candidate, x, y in chunk.triples
    ]
    candidates = [candidate for candidate, _x, _y in chunk.triples]
    products = list(zip(candidates, batched_products(pairs, workspace)))
    total_bytes = sum(product.nbytes() for _candidate, product in products)
    if total_bytes >= _RESULT_BLOCK_MIN_BYTES:
        block = SharedPartitionBlock(dict(products))
        # Hand the segment to the parent: detach our mapping, keep
        # the name alive — the adopting parent owns the unlink.
        block.detach()
        return candidates, (block.name, block.directory, block.nbytes)
    return (
        [
            (candidate, *product.export_buffers())
            for candidate, product in products
        ],
        None,
    )


def _run_validity(chunk: ValidityChunk) -> list[ValidityOutcome]:
    workspace = _workspace(chunk.criteria.num_rows)
    outcomes: list[ValidityOutcome] = []
    for whole_mask, lhs_mask in chunk.tasks:
        pi_whole = _resolve(chunk.directory, whole_mask)
        pi_lhs = _resolve(chunk.directory, lhs_mask)
        # The masks differ in exactly the dependent attribute, so the
        # rhs index rides along for free — the wire format stays two
        # masks per task.
        rhs_index = (whole_mask ^ lhs_mask).bit_length() - 1
        outcomes.append(
            evaluate_validity(pi_lhs, pi_whole, chunk.criteria, workspace, rhs_index)
        )
    return outcomes


def run_chunk(chunk: ProductChunk | ValidityChunk) -> ChunkReceipt:
    """Pool entry point: dispatch one chunk and time it.

    The fault hook lets the resilience suite SIGKILL or poison a
    worker mid-chunk; it is one environment lookup when disarmed, and
    it never fires in the driver process, so the executor's serial
    fallback runs the same chunks safely in-process.
    """
    faults.maybe_fire_worker_fault()
    start = time.perf_counter()
    block = None
    if isinstance(chunk, ProductChunk):
        payload, block = _run_products(chunk)
    else:
        payload = _run_validity(chunk)
    return ChunkReceipt(os.getpid(), time.perf_counter() - start, payload, block)
