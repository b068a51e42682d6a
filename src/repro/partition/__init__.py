"""Stripped partitions: the paper's core data structure (Section 2).

Two interchangeable engines are provided:

* :class:`repro.partition.pure.PurePartition` — a direct transcription
  of the probe-table algorithms from the paper, kept readable and used
  as the reference implementation in tests.
* :class:`repro.partition.vectorized.CsrPartition` — a numpy
  CSR-layout engine (the "compact representation" optimization of the
  extended version) used by the TANE driver.

Both engines count g3 directly (``g3_error_count``).  The contingency
table of a pair, its g1/g2/g3 counts, and the label rows of a level
block live in :mod:`repro.partition.errors`; the error measures built
on that table live in :mod:`repro.search.measures`.
"""

from repro.partition.base import PartitionBase
from repro.partition.pure import PurePartition
from repro.partition.store import (
    DiskPartitionStore,
    MemoryPartitionStore,
    PartitionStore,
    make_store,
)
from repro.partition.vectorized import CsrPartition, PartitionWorkspace, batched_products

__all__ = [
    "PartitionBase",
    "PurePartition",
    "CsrPartition",
    "PartitionWorkspace",
    "batched_products",
    "PartitionStore",
    "MemoryPartitionStore",
    "DiskPartitionStore",
    "make_store",
]
