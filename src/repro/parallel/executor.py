"""The ``LevelExecutor`` abstraction: serial vs process-pool backends.

A level executor runs the two embarrassingly parallel loops of one
lattice level on behalf of the TANE driver:

* ``products`` — GENERATE-NEXT-LEVEL's partition products, yielded in
  candidate order (the driver streams them into the partition store);
* ``validity_tests`` — COMPUTE-DEPENDENCIES' validity tests, returned
  in level order.

Both backends produce *identical* outputs for identical inputs: the
serial backend runs both loops in-process, in task order; the process
backend shards the task list across a process pool (inputs shipped
zero-copy via :mod:`repro.parallel.shm`) and merges results back in
deterministic task order.  Exact-mode validity tests
(``epsilon == 0``) are O(1) rank comparisons on precomputed counters,
so the process backend runs them in-process rather than paying
shipping costs for no work.

Fault tolerance
---------------
The process backend survives worker failures.  Pools are
:class:`concurrent.futures.ProcessPoolExecutor` instances, whose
management thread *detects* abruptly dead workers (an OOM-killed or
SIGKILLed worker breaks the pool with ``BrokenProcessPool`` instead of
hanging the result queue the way ``multiprocessing.Pool.imap`` does).
On a broken pool the executor respawns a fresh pool with exponential
backoff and resubmits every unconsumed chunk; a chunk that raises
without killing its worker is retried a bounded number of times and
then executed serially in the driver process.  After
``max_pool_respawns`` pool deaths the executor *degrades*: all
remaining work in the run executes serially in-process.  Chunks are
pure functions of their inputs, so retries and fallbacks reproduce
byte-identical results — dependencies, keys, and counters match an
undisturbed run exactly.  Retries, respawns, fallbacks, and
degradation are counted in :class:`ExecutorUsage` and emitted as
``executor.retry`` / ``executor.respawn`` / ``executor.degrade`` spans
into an active trace.

When a tracer is active (:mod:`repro.obs.trace`) the process backend
also emits one ``worker.chunk`` span per receipt — carrying the worker
pid, busy seconds, and task count, merged into the main trace as
results arrive — plus a ``shm.ship`` span per shared-memory block
export, so a trace separates pool overhead from shipping from genuine
compute.

Resident-worker delta shipping
------------------------------
The executor keeps every shipped block — and a ``mask -> (block,
entry)`` residency map — alive across phases and levels instead of
re-exporting the lattice each phase.  A phase ships only the masks
that are not yet resident (usually just the level's new product
partitions); chunk directories point into whichever block holds each
mask.  Workers keep segments
attached between chunks (:mod:`repro.parallel.shm`), so previously
shipped partitions cost nothing to reference again.  The search core
drives the lifecycle duck-typed: ``release_masks(masks)`` (from
``PartitionManager.reclaim``) frees a reclaimed level's residency and
closes blocks with no live masks left, and ``begin_run()`` (from
``PartitionManager.bootstrap``) drops *all* residency — masks are
small integers reused across relations, so an executor shared by
several runs must never serve one relation's partitions to another.
Bytes that delta shipping avoided re-exporting are counted in
:attr:`ExecutorUsage.shm_bytes_saved`.

Results ride shared memory too: a worker whose product chunk exceeds
a byte threshold packs it into a block of its own and ships only the
``(name, directory, nbytes)`` handoff — the parent adopts the segment
(:class:`repro.parallel.shm.AdoptedBlock`), yields zero-copy views,
and registers the candidates as resident, so the next level's factors
need no re-export at all.  Pickling megabytes of CSR arrays through
the result pipe was the dominant phase cost at scale.

Every phase splits its tasks into ``min(len(tasks), workers *
CHUNKS_PER_WORKER)`` contiguous shards: several per worker balance
skewed task costs (partition products vary wildly in size) without
pickling a result per task.

Shared-memory lifetime is deterministic: every shipped block is
tracked by the executor until ``release_masks`` / ``begin_run`` /
:meth:`ProcessLevelExecutor.close` releases it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from abc import ABC, abstractmethod
from collections.abc import Iterator, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.obs import events as obs_events
from repro.obs import trace as obs
from repro.parallel.shm import AdoptedBlock, BlockEntry, SharedPartitionBlock
from repro.parallel.worker import ChunkReceipt, ProductChunk, ValidityChunk, init_worker, run_chunk
from repro.partition.vectorized import CsrPartition, PartitionWorkspace
from repro.search.execution import Fetch, SerialExecution, ValidityGroups
from repro.search.execution import serial_validity as _serial_validity
from repro.search.measures import ValidityCriteria, ValidityOutcome

__all__ = [
    "ExecutorUsage",
    "LevelExecutor",
    "SerialLevelExecutor",
    "ProcessLevelExecutor",
    "make_executor",
]

# Shards per worker per phase.
CHUNKS_PER_WORKER = 4

# ``fork`` where the platform has it (cheap, and workers inherit the
# parent's imports); the platform default elsewhere.
_START_METHOD = (
    "fork"
    if "fork" in multiprocessing.get_all_start_methods()
    else multiprocessing.get_all_start_methods()[0]
)


@dataclass
class ExecutorUsage:
    """Aggregated telemetry of a process executor's pool."""

    chunks: int = 0
    busy_seconds: float = 0.0
    shm_bytes: int = 0
    shm_bytes_saved: int = 0
    """Bytes already resident in shared memory that delta shipping
    avoided re-exporting."""
    blocks_shipped: int = 0
    """Shared-memory blocks exported across both phases."""
    pids: set[int] = field(default_factory=set)
    chunk_retries: int = 0
    """Chunk executions re-submitted after an in-worker exception."""
    pool_respawns: int = 0
    """Pools recreated after a worker died abruptly (SIGKILL, OOM)."""
    serial_fallbacks: int = 0
    """Chunks that exhausted their retries and ran in the driver."""
    degraded: bool = False
    """True once repeated pool deaths demoted the run to serial."""


class LevelExecutor(ABC):
    """Strategy for executing one level's independent hot-loop tasks."""

    name: str = "abstract"
    workers: int = 1
    usage: ExecutorUsage | None = None

    @abstractmethod
    def products(
        self,
        triples: Sequence[tuple[int, int, int]],
        fetch: Fetch,
        workspace: PartitionWorkspace,
    ) -> Iterator[tuple[int, CsrPartition]]:
        """Yield ``(candidate, partition)`` for each product triple, in order."""

    @abstractmethod
    def validity_tests(
        self,
        groups: ValidityGroups,
        fetch: Fetch,
        criteria: ValidityCriteria,
        workspace: PartitionWorkspace,
    ) -> list[ValidityOutcome]:
        """Run every group's tests; outcomes flattened in group order."""

    def close(self) -> None:
        """Release pool resources (no-op for in-process backends)."""


class SerialLevelExecutor(SerialExecution, LevelExecutor):
    """Run every task inline — the classic single-core TANE loop.

    The loop itself lives in the search core
    (:class:`repro.search.execution.SerialExecution`); this subclass
    merely stamps it as a :class:`LevelExecutor` so callers holding a
    ready executor instance keep type-checking against the ABC.
    """


class ProcessLevelExecutor(LevelExecutor):
    """Shard level tasks across a process pool, surviving worker deaths.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()``.
    max_chunk_retries:
        Pool re-submissions of a chunk whose execution raised before
        the chunk falls back to running serially in the driver.
    max_pool_respawns:
        Fresh pools created after abrupt worker deaths before the
        executor degrades to serial execution for the rest of the run.
    retry_backoff_seconds:
        Base sleep before a retry or respawn; doubles per consecutive
        respawn (bounded), so a crash-looping environment is not
        hammered.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        max_chunk_retries: int = 2,
        max_pool_respawns: int = 2,
        retry_backoff_seconds: float = 0.05,
    ) -> None:
        resolved = workers if workers else os.cpu_count() or 1
        if resolved < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if max_chunk_retries < 0 or max_pool_respawns < 0:
            raise ConfigurationError("retry/respawn limits must be >= 0")
        if retry_backoff_seconds < 0:
            raise ConfigurationError(
                f"retry_backoff_seconds must be >= 0, got {retry_backoff_seconds}"
            )
        self.workers = resolved
        self._max_chunk_retries = max_chunk_retries
        self._max_pool_respawns = max_pool_respawns
        self._retry_backoff_seconds = retry_backoff_seconds
        self._context = multiprocessing.get_context(_START_METHOD)
        self._pool: ProcessPoolExecutor | None = None
        self._degraded = False
        # Resident shipping state: every open block by name, the set of
        # masks each still serves, and mask -> (block_name, entry).
        self._blocks: dict[str, SharedPartitionBlock] = {}
        self._block_masks: dict[str, set[int]] = {}
        self._residency: dict[int, tuple[str, BlockEntry]] = {}
        self.usage = ExecutorUsage()

    # -- pool management -------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._context,
                initializer=init_worker,
            )
        return self._pool

    @staticmethod
    def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
        # Terminate rather than drain: on a normal run every result has
        # been consumed by now; on an interrupted or broken run waiting
        # would block on shards that no longer matter.  Capture the
        # pool internals first — shutdown() drops these references.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        thread = getattr(pool, "_executor_manager_thread", None)
        result_queue = getattr(pool, "_result_queue", None)
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=1.0)
        for process in processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        # A worker terminated *mid-result* leaves a partial pickle in
        # the result pipe.  The pool's management thread then blocks in
        # read() on that pipe forever — the parent still holds a write
        # end, so no EOF arrives — and the interpreter's non-daemon
        # thread join at exit hangs the whole process (observed on
        # Ctrl-C of a parallel run).  Closing the reader would not
        # help: close() does not wake a thread already blocked in
        # read().  Closing the parent's *write* end does: with every
        # worker dead, the read returns EOF, recv() raises inside the
        # management thread's try block, and it exits via its
        # broken-pool path.
        if thread is None or not thread.is_alive():
            return
        thread.join(timeout=1.0)
        if not thread.is_alive():
            return
        try:
            result_queue._writer.close()
        except (AttributeError, OSError):
            pass
        thread.join(timeout=5.0)

    def close(self) -> None:
        # A terminal Ctrl-C signals the whole process group, and some
        # drivers (GNU timeout among them) signal the child directly
        # *and* via the group — so a second KeyboardInterrupt can land
        # while this teardown is running, abandoning the pool's
        # management thread mid-shutdown or leaking shared-memory
        # blocks.  The teardown is bounded, so shield it: ignore
        # SIGINT for its duration (main thread only) and retry once if
        # an interrupt slipped in before the shield was up.
        try:
            restore = signal.signal(signal.SIGINT, signal.SIG_IGN)
        except ValueError:  # not the main thread; signals go elsewhere
            restore = None
        pool, self._pool = self._pool, None
        try:
            for _ in range(2):
                try:
                    if pool is not None:
                        self._shutdown_pool(pool)
                        pool = None
                    # Deterministic shm cleanup: release every resident
                    # block, including any a partially consumed
                    # products stream left open.
                    self._release_all_blocks()
                    break
                except KeyboardInterrupt:
                    continue
        finally:
            if restore is not None:
                signal.signal(signal.SIGINT, restore)

    # -- resident shipping lifecycle -------------------------------------

    def begin_run(self) -> None:
        """Drop all resident shared-memory state before a new search.

        Called (duck-typed) by ``PartitionManager.bootstrap``: masks
        are small integers reused across relations, so an executor
        instance shared by several runs must never carry residency
        from one relation into the next.
        """
        self._release_all_blocks()

    def release_masks(self, masks) -> None:
        """Free a reclaimed level's residency; close drained blocks."""
        for mask in masks:
            entry = self._residency.pop(mask, None)
            if entry is None:
                continue
            live = self._block_masks.get(entry[0])
            if live is not None:
                live.discard(mask)
                if not live:
                    self._close_block(entry[0])

    def _close_block(self, name: str) -> None:
        block = self._blocks.pop(name, None)
        self._block_masks.pop(name, None)
        self._residency = {
            mask: entry for mask, entry in self._residency.items() if entry[0] != name
        }
        if block is not None:
            block.close()

    def _release_all_blocks(self) -> None:
        for name in list(self._blocks):
            self._close_block(name)
        self._residency.clear()

    # -- failure handling ------------------------------------------------

    def _note_pool_break(self, kind: str) -> None:
        """A worker died abruptly: retire the pool, maybe degrade."""
        assert self.usage is not None
        pool, self._pool = self._pool, None
        if pool is not None:
            self._shutdown_pool(pool)
        self.usage.pool_respawns += 1
        if self.usage.pool_respawns > self._max_pool_respawns:
            self._degraded = True
            self.usage.degraded = True
            obs.emit(
                "executor.degrade",
                0.0,
                kind=kind,
                respawns=self.usage.pool_respawns,
            )
            return
        obs.emit(
            "executor.respawn", 0.0, kind=kind, respawns=self.usage.pool_respawns
        )
        if self._retry_backoff_seconds:
            time.sleep(
                min(
                    self._retry_backoff_seconds * (2 ** (self.usage.pool_respawns - 1)),
                    2.0,
                )
            )

    def _run_inline(self, chunk: ProductChunk | ValidityChunk) -> ChunkReceipt:
        """Execute one chunk in the driver process (the serial fallback).

        Chunks attach the shared-memory block by name exactly like a
        worker would, so the payload is byte-identical to a pool
        execution; the fault harness guards the driver pid, so armed
        worker faults never fire here.
        """
        return run_chunk(chunk)

    def _retry_chunk(
        self, chunk: ProductChunk | ValidityChunk, kind: str
    ) -> ChunkReceipt | None:
        """Re-run a chunk whose execution raised, bounded, then serially.

        Returns ``None`` when a retry broke the pool (the caller
        resubmits from its current position on a fresh pool); raises
        only when the serial fallback itself fails — a deterministic
        error in the chunk, not a worker fault.
        """
        assert self.usage is not None
        for attempt in range(1, self._max_chunk_retries + 1):
            self.usage.chunk_retries += 1
            obs.emit("executor.retry", 0.0, kind=kind, attempt=attempt)
            if self._retry_backoff_seconds:
                time.sleep(self._retry_backoff_seconds)
            try:
                return self._ensure_pool().submit(run_chunk, chunk).result()
            except BrokenExecutor:
                self._note_pool_break(kind)
                return None
            except Exception:
                continue
        self.usage.serial_fallbacks += 1
        obs.emit("executor.serial_fallback", 0.0, kind=kind)
        return self._run_inline(chunk)

    def _dispatch(
        self, chunks: Sequence[ProductChunk | ValidityChunk], kind: str
    ) -> Iterator[ChunkReceipt]:
        """Yield every chunk's receipt in order, surviving failures.

        Receipts stream back as chunks finish but are consumed in
        submission order, so downstream merging stays deterministic
        regardless of retries or respawns.
        """
        position = 0
        while position < len(chunks):
            if self._degraded:
                for index in range(position, len(chunks)):
                    yield self._run_inline(chunks[index])
                return
            pool = self._ensure_pool()
            base = position
            try:
                futures = [pool.submit(run_chunk, chunk) for chunk in chunks[base:]]
            except (BrokenExecutor, RuntimeError):
                # The pool broke between levels (submit on a broken
                # executor raises immediately).
                self._note_pool_break(kind)
                continue
            resubmit = False
            for offset, future in enumerate(futures):
                index = base + offset
                try:
                    receipt = future.result()
                except BrokenExecutor:
                    self._note_pool_break(kind)
                    resubmit = True
                    break
                except Exception:
                    # The chunk raised without killing its worker; the
                    # pool is still healthy, later futures keep running.
                    receipt = self._retry_chunk(chunks[index], kind)
                    if receipt is None:
                        resubmit = True
                        break
                yield receipt
                position = index + 1
            if not resubmit:
                # The enumerate loop consumed every future, so position
                # always equals len(chunks) here (pinned by a test).
                for future in futures:
                    future.cancel()
                return

    # -- sharding --------------------------------------------------------

    def _shards(self, tasks: Sequence) -> list[Sequence]:
        """Split ``tasks`` into ``min(len(tasks), workers *
        CHUNKS_PER_WORKER)`` contiguous shards (``[]`` when empty)."""
        if not tasks:
            return []
        count = min(len(tasks), self.workers * CHUNKS_PER_WORKER)
        bounds = [len(tasks) * i // count for i in range(count + 1)]
        return [tasks[bounds[i]:bounds[i + 1]] for i in range(count)]

    def _record(self, receipt: ChunkReceipt, kind: str) -> list:
        assert self.usage is not None
        self.usage.chunks += 1
        self.usage.busy_seconds += receipt.seconds
        self.usage.pids.add(receipt.pid)
        # Workers do not trace; their receipts are merged into the
        # main trace here, as the pool hands results back — the
        # synthesized span lands under whichever level phase is open.
        obs.emit(
            "worker.chunk",
            receipt.seconds,
            pid=receipt.pid,
            kind=kind,
            tasks=len(receipt.payload),
        )
        emitter = obs_events.active_emitter()
        if emitter is not None:
            # Live heartbeat: one event per chunk receipt, carrying the
            # chunk's throughput and how much shared memory the parent
            # currently keeps resident.  The resident sum is a handful
            # of dict reads, only paid while events are enabled.
            emitter.emit(
                "heartbeat",
                pid=receipt.pid,
                chunk_kind=kind,
                tasks=len(receipt.payload),
                seconds=receipt.seconds,
                tasks_per_second=(
                    len(receipt.payload) / receipt.seconds
                    if receipt.seconds > 0
                    else 0.0
                ),
                resident_bytes=sum(
                    block.nbytes for block in self._blocks.values()
                ),
            )
        return receipt.payload

    @staticmethod
    def _entry_bytes(entry: BlockEntry) -> int:
        # (indices_start, indices_size, offsets_start, offsets_size, _)
        return (entry[1] + entry[3]) * 8

    def _ship_missing(self, masks, fetch: Fetch, kind: str) -> None:
        """Make every mask resident.

        Masks already resident from an earlier phase or level are
        served from their existing block and only the rest are packed
        into a new one; the bytes skipped are recorded as
        ``shm_bytes_saved``.
        """
        assert self.usage is not None
        needed = sorted(masks)
        missing = [mask for mask in needed if mask not in self._residency]
        saved = sum(
            self._entry_bytes(self._residency[mask][1])
            for mask in needed
            if mask not in missing
        )
        self.usage.shm_bytes_saved += saved
        if not missing:
            return
        partitions = {mask: fetch(mask) for mask in missing}
        with obs.span("shm.ship", kind=kind) as ship:
            block = SharedPartitionBlock(partitions)
            ship.set("bytes", block.nbytes)
            ship.set("partitions", len(partitions))
            ship.set("saved_bytes", saved)
        self.usage.shm_bytes += block.nbytes
        self.usage.blocks_shipped += 1
        self._blocks[block.name] = block
        self._block_masks[block.name] = set(missing)
        for mask in missing:
            self._residency[mask] = (block.name, block.directory[mask])

    def _directory(self, masks) -> dict[int, tuple[str, BlockEntry]]:
        """Chunk directory: each mask's ``(block_name, entry)``."""
        return {mask: self._residency[mask] for mask in set(masks)}

    def _adopt_results(self, handoff, candidates):
        """Adopt a worker-built result block and yield its partitions.

        The worker packed this chunk's products into a fresh segment
        instead of pickling megabytes of CSR arrays through the result
        pipe; the parent attaches zero-copy and takes over unlink
        ownership.  Registering the candidates as resident here is
        what makes the *next* level's ``_ship_missing`` a no-op for
        them — products never leave shared memory again.
        """
        assert self.usage is not None
        name, directory, nbytes = handoff
        block = AdoptedBlock(name, directory, nbytes)
        self.usage.shm_bytes += nbytes
        self.usage.blocks_shipped += 1
        self._blocks[name] = block
        self._block_masks[name] = set(directory)
        for mask, entry in directory.items():
            self._residency[mask] = (name, entry)
        for candidate in candidates:
            yield candidate, block.partition(candidate)

    # -- LevelExecutor interface -----------------------------------------

    def products(self, triples, fetch, workspace):
        if not triples:
            return
        factor_masks = {mask for _, x, y in triples for mask in (x, y)}
        self._ship_missing(factor_masks, fetch, "products")
        num_rows = self._residency[next(iter(factor_masks))][1][4]
        chunks = [
            ProductChunk(
                directory=self._directory(
                    mask for _, x, y in shard for mask in (x, y)
                ),
                num_rows=num_rows,
                triples=tuple(shard),
            )
            for shard in self._shards(triples)
        ]
        for receipt in self._dispatch(chunks, "products"):
            payload = self._record(receipt, "products")
            if receipt.block is not None:
                yield from self._adopt_results(receipt.block, payload)
            else:
                for candidate, indices, offsets in payload:
                    yield candidate, CsrPartition(indices, offsets, num_rows)

    def validity_tests(self, groups, fetch, criteria, workspace):
        tasks = [
            (whole_mask, lhs_mask)
            for whole_mask, pairs in groups
            for _rhs, lhs_mask in pairs
        ]
        # Exact-mode tests compare two precomputed counters — O(1) each;
        # shipping partitions to workers would cost more than the test.
        if not tasks or criteria.epsilon == 0.0:
            return _serial_validity(groups, fetch, criteria, workspace)
        masks = {mask for task in tasks for mask in task}
        self._ship_missing(masks, fetch, "validity")
        chunks = [
            ValidityChunk(
                directory=self._directory(mask for task in shard for mask in task),
                criteria=criteria,
                tasks=tuple(shard),
            )
            for shard in self._shards(tasks)
        ]
        outcomes: list[ValidityOutcome] = []
        for receipt in self._dispatch(chunks, "validity"):
            outcomes.extend(self._record(receipt, "validity"))
        return outcomes


def make_executor(executor: str | LevelExecutor, workers: int) -> LevelExecutor:
    """Resolve the ``TaneConfig.executor`` / ``workers`` pair.

    ``"serial"`` always runs inline; ``"process"`` always uses a pool
    (of ``workers`` or all cores); ``"auto"`` picks the pool exactly
    when ``workers > 1``.  A ready :class:`LevelExecutor` instance is
    passed through (the caller owns its lifecycle)."""
    if isinstance(executor, LevelExecutor):
        return executor
    if executor == "serial":
        return SerialLevelExecutor()
    if executor == "process":
        return ProcessLevelExecutor(workers or None)
    if executor == "auto":
        if workers > 1:
            return ProcessLevelExecutor(workers)
        return SerialLevelExecutor()
    raise ConfigurationError(
        f"unknown executor {executor!r}; use 'auto', 'serial' or 'process'"
    )
