"""Parallel execution of the per-level hot loops (sharding the lattice).

The paper's analysis (Section 6) puts the dominant cost of TANE in the
O(|r|) partition products of GENERATE-NEXT-LEVEL and the O(|r|) ``g3``
computations of COMPUTE-DEPENDENCIES — work that is independent within
a level.  This package shards both loops across a
:mod:`multiprocessing` pool.  Workers run the search core's own
kernels — :func:`~repro.partition.vectorized.batched_products` and
:func:`~repro.search.measures.evaluate_validity` — so parallel runs are
bit-identical to serial ones.

* :mod:`repro.parallel.shm` — packs a level's CSR partitions into one
  :class:`multiprocessing.shared_memory.SharedMemory` segment so the
  int32 ``indices``/``offsets`` buffers reach workers zero-copy.
* :mod:`repro.parallel.worker` — the process-pool entry point; holds
  one :class:`~repro.partition.vectorized.PartitionWorkspace` per
  worker.
* :mod:`repro.parallel.executor` — the :class:`LevelExecutor`
  abstraction with ``serial`` and ``process`` backends, selected by
  :attr:`repro.core.tane.TaneConfig.executor` / ``workers``.  The
  process backend keeps shipped partitions resident across levels and
  splits each phase into ``workers × 4`` shards; it has no tuning
  knobs beyond its pool size and fault-tolerance limits.
"""

from repro.parallel.executor import (
    LevelExecutor,
    ProcessLevelExecutor,
    SerialLevelExecutor,
    make_executor,
)
from repro.search.measures import ValidityCriteria, ValidityOutcome, evaluate_validity

__all__ = [
    "LevelExecutor",
    "SerialLevelExecutor",
    "ProcessLevelExecutor",
    "make_executor",
    "ValidityCriteria",
    "ValidityOutcome",
    "evaluate_validity",
]
