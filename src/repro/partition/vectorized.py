"""Vectorized stripped-partition engine (CSR layout over numpy arrays).

This is the engine the TANE driver actually runs on.  A partition is
stored in *compressed sparse row* style:

* ``indices`` — one ``int32`` array of row ids, grouped by class;
* ``offsets`` — class boundaries (``offsets[k] .. offsets[k+1]`` is
  class ``k``).

Every index buffer is ``int32`` — row ids, offsets, cached labels, the
workspace probe — and so are the disk spills that carry them.  A
relation of ``2**31`` rows or more is refused.

This realizes the extended version's "more compact representation of
partitions" optimization: memory per partition is two flat arrays, and
both the partition product and the ``g3`` computation become a handful
of vectorized passes instead of per-row Python work.

Canonical layout
----------------
Every constructor and product path emits stripped classes in **one**
canonical order, so the byte layout of a partition never depends on
which code path produced it (checkpoint adoption, disk-store spills
and golden comparisons all compare raw buffers):

* :meth:`CsrPartition.from_column` orders classes by value code;
* products (``product``, ``_product_small``, :func:`batched_products`)
  order classes by the pair ``(class-in-self, class-in-other)``, with
  rows inside a class in the right factor's index order;
* rows inside every class ascend by row id.  ``from_column``,
  ``from_classes``, ``empty`` and ``single_class`` emit ascending
  classes, and a product inherits the order from its right factor, so
  every partition the program builds is ascending.  The dense product
  kernel (below) emits ascending rows whatever its inputs, so it
  agrees with the per-triple path only under this invariant.  A
  partition wrapped around raw buffers (``CsrPartition(...)``,
  ``attach``, a disk-store spill) is checked once, lazily, by
  :meth:`CsrPartition._rows_ascending`; a non-ascending right factor
  keeps its products off the dense kernel.

Products take one of four paths, selected by input properties only:

* a single ``product`` call whose stripped sizes sum to at most
  ``_SMALL_PRODUCT_THRESHOLD`` probes a Python dict
  (``_product_small``); larger ones go to the pooled kernel on one
  task (the last two paths);
* :func:`batched_products` over a relation of at most
  ``_DENSE_MAX_ROWS`` rows builds one label matrix for a chunk's
  factors and groups every task with one row-wise sort — a fixed
  number of numpy passes per chunk, whatever the number of tasks;
* over a taller relation, the pooled kernel: a call whose right
  factors hold fewer than ``_THREAD_MIN_ROWS`` stripped rows solves
  every task whose right factor was built by ``from_column`` (and
  whose left factor ascends) by grouping the left factor's rows by
  their value code, every such task in one sort (below);
* the pooled kernel's other tasks reuse probe scatters across tasks
  sharing a left factor, group the surviving rows by their left label
  (below) and pool small tasks into sub-batches grouped together.

Left-label grouping
-------------------
The rows of ``y`` that survive the probe of ``x · y`` are read in
``y``'s index order, which is class by class, so their right label
``ly`` never decreases.  A *stable* sort on the left label ``lx`` alone
therefore gives the permutation of a stable sort of the pair keys
``lx * classes_y + ly``, and a class opens wherever ``lx`` or ``ly``
changes.  ``lx`` spans only ``classes_x`` values, so it sorts as
16-bit digits in linear-time radix passes (:func:`_stable_order`).
:func:`_group_survivors` does this for ``product`` and the pooled
kernel.

Column-keyed products
---------------------
A product by one attribute's partition, ``π_X · π_{A}``, is ``π_X``'s
rows grouped by their class in ``π_X`` and their value code of ``A``.
So :meth:`CsrPartition.from_column` keeps a reference to the code
array it grouped (for a relation's column, the relation's own buffer:
no copy) and its code-space width; every other constructor, ``attach``
and disk-store spills leave the partition without one.
:func:`_column_products` keys each row of every such task's left
factor by ``(task, left class, code)`` and groups all of them with
one stable sort.  Codes order as the column's classes do and the left
factor's rows ascend, so the classes come out in the canonical layout,
byte-identical to the probe path, and a code that occurs once gives a
singleton group that is stripped.  Holders
that outlive a run (the cross-run partition cache) keep a column-free
twin (:meth:`CsrPartition.without_column`), so they never pin a
relation's codes outside their byte accounting.

Kernel threads
--------------
The products of one pooled-kernel call are independent, and numpy
releases the interpreter lock in the sorts, gathers and compares that
make up their time.  So a call with at least two left factors and at
least ``_THREAD_MIN_ROWS`` right-factor rows runs each left factor's
group (:func:`_left_factor_tasks`) on a module-level thread pool, each
thread with its own probe workspace; smaller calls stay on the calling
thread.  The pool has one thread per CPU in the process's affinity
mask, so CPU affinity is what limits it.  The small tasks the groups
return are pooled in group order exactly as on one thread, so results
are byte-identical either way.  This pool is the program's only
parallelism: the search runs in one process, as the paper's TANE does.
A forked child of a caller drops the parent's pool
(:func:`_forget_pool`).

:func:`batched_error_counts` runs the same two kernels but stops once
every task's rows are grouped: a product's ``e(π) = ||π̂|| - |π̂|`` is
its surviving rows minus their groups, singletons included, so no
result partition is built.  The search uses it for a level whose
partitions are only ever needed for their ranks (Lemma 2).
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import threading
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import DataError
from repro.partition.base import PartitionBase

__all__ = [
    "INDEX_DTYPE", "CsrPartition", "PartitionWorkspace", "batched_error_counts", "batched_products",
]

# The dtype of every index buffer: row ids, offsets, labels, the probe.
INDEX_DTYPE = np.dtype(np.int32)
_MAX_ROWS = int(np.iinfo(INDEX_DTYPE).max)  # row ids must fit; taller relations are refused


def _check_num_rows(num_rows: int) -> None:
    if num_rows > _MAX_ROWS:
        raise DataError(
            f"relation of {num_rows} rows: partitions hold int32 row ids, "
            f"so at most {_MAX_ROWS} rows are supported"
        )


def _index_buffer(values, limit: int, what: str) -> np.ndarray:
    """``values`` as an ``int32`` buffer, refusing a lossy narrowing.

    An ``int32`` input is returned as is (no copy, no check).  A wider
    one is checked to lie in ``[0, limit]`` *before* the cast: narrowed
    unchecked, row id ``2**32 + 5`` would silently become row 5.
    """
    array = np.asarray(values)
    if array.dtype == INDEX_DTYPE:
        return array
    array = np.asarray(array, dtype=np.int64)
    if array.size and (int(array.min()) < 0 or int(array.max()) > limit):
        raise DataError(
            f"{what} outside [0, {limit}]: "
            f"min {int(array.min())}, max {int(array.max())}"
        )
    return array.astype(INDEX_DTYPE)


class PartitionWorkspace:
    """Reusable scratch space for partition products and g3 tests.

    Holds one ``int32`` probe array of length ``num_rows`` initialized
    to ``-1``.  Operations label only the rows they touch and reset
    them afterwards, so a single workspace can be shared by an entire
    TANE run (one per thread).
    """

    __slots__ = ("num_rows", "probe")

    def __init__(self, num_rows: int) -> None:
        _check_num_rows(num_rows)
        self.num_rows = num_rows
        self.probe = np.full(num_rows, -1, dtype=INDEX_DTYPE)


# Below this total stripped size, a single ``product`` call probes a
# plain-Python dict instead of the vectorized path: each numpy call
# costs a few microseconds of fixed overhead, and a product issues ~15
# of them.  Only single ``product`` calls take this path: product
# chains from the singletons (checkpoint restore and the ablation
# strategy).  The kernels of ``batched_products`` and
# ``batched_error_counts`` never take it.
_SMALL_PRODUCT_THRESHOLD = 1024


class CsrPartition(PartitionBase):
    """Stripped partition in CSR layout."""

    __slots__ = (
        "_indices", "_offsets", "_num_rows", "_error_count",
        "_sizes", "_label_cache", "_list_cache", "_table_cache", "_ascending",
        "_column", "_column_width",
    )

    def __init__(self, indices: np.ndarray, offsets: np.ndarray, num_rows: int) -> None:
        """Wrap raw buffers: ``int32`` ones as they are, wider ones
        narrowed once their row ids are checked to lie in
        ``[0, num_rows)``."""
        self._wrap(indices, offsets, num_rows, num_rows - 1)

    def _wrap(self, indices, offsets, num_rows: int, id_limit: int) -> None:
        indices = _index_buffer(indices, id_limit, "row ids")
        offsets = _index_buffer(offsets, indices.size, "CSR offsets")
        if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != indices.size:
            raise DataError("malformed CSR offsets")
        self._fill(indices, offsets, num_rows, None)

    def _fill(
        self,
        indices: np.ndarray,
        offsets: np.ndarray,
        num_rows: int,
        ascending: bool | None,
    ) -> None:
        _check_num_rows(num_rows)
        self._indices = indices
        self._offsets = offsets
        self._num_rows = num_rows
        # e(π) = ||π̂|| - |π̂| as a plain int: the Lemma-2 validity test
        # compares it millions of times per run.
        self._error_count = int(indices.size) - int(offsets.size - 1)
        self._sizes: np.ndarray | None = None
        self._label_cache: np.ndarray | None = None
        self._list_cache: tuple[list[int], list[int]] | None = None
        self._table_cache: dict[int, int] | None = None
        # Rows ascend inside every class: True when a constructor or
        # product guarantees it, None until checked (raw buffers).
        self._ascending = ascending
        # The value codes this partition groups, and their code-space
        # width, when it was built from a column (see "Column-keyed
        # products" above); None for every other partition.
        self._column: np.ndarray | None = None
        self._column_width = 0

    @property
    def error_count(self) -> int:
        """``e(π) = ||π̂|| - |π̂|`` (precomputed)."""
        return self._error_count

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_column(cls, codes: Sequence[int] | np.ndarray, num_rows: int | None = None) -> "CsrPartition":
        """Build ``π_{{A}}`` from a column of non-negative value codes."""
        codes = np.asarray(codes, dtype=np.int64)
        if num_rows is None:
            num_rows = codes.size
        if codes.size != num_rows:
            raise DataError(f"column has {codes.size} codes for {num_rows} rows")
        if num_rows == 0:
            return cls.empty(0)
        if int(codes.min()) < 0:
            row = int(np.argmax(codes < 0))
            raise DataError(
                f"negative value code {int(codes[row])} at row {row}; "
                "column codes must be non-negative integers"
            )
        codes = _dense_code_space(codes)
        counts = np.bincount(codes)
        order = _stable_order(codes, counts.size)
        sorted_codes = codes[order]
        keep = counts[sorted_codes] >= 2
        indices = order[keep].astype(INDEX_DTYPE)
        # The stable sort keeps each class's rows ascending.
        partition = cls._built(indices, _offsets_of(counts[counts >= 2]), num_rows, True)
        # A reference, not a copy: for a relation's column this is the
        # relation's own buffer.
        partition._column, partition._column_width = codes, counts.size
        return partition

    def with_column(self, codes: Sequence[int] | np.ndarray) -> "CsrPartition":
        """A new partition over the same buffers that carries ``codes``.

        ``codes`` must be the column this partition groups (as for
        :meth:`from_column`); a partition cache serves its entries
        through such a wrapper, so that the cached object itself never
        holds a run's codes.
        """
        codes = _dense_code_space(np.asarray(codes, dtype=np.int64))
        partition = CsrPartition._built(
            self._indices, self._offsets, self._num_rows, self._ascending
        )
        if codes.size:
            partition._column, partition._column_width = codes, int(codes.max()) + 1
        return partition

    def without_column(self) -> "CsrPartition":
        """``self`` when it carries no column, else a column-free twin
        over the same buffers (for holders that outlive the relation)."""
        if self._column is None:
            return self
        return CsrPartition._built(self._indices, self._offsets, self._num_rows, self._ascending)

    @classmethod
    def from_classes(cls, classes: Iterable[Sequence[int]], num_rows: int) -> "CsrPartition":
        """Build from an explicit collection of classes (singletons dropped)."""
        stripped = [np.asarray(sorted(c), dtype=np.int64) for c in classes if len(c) >= 2]
        if not stripped:
            return cls.empty(num_rows)
        indices = np.concatenate(stripped)
        if np.unique(indices).size != indices.size:
            raise DataError("partition classes overlap")
        if indices.min() < 0 or indices.max() >= num_rows:
            raise DataError("row index out of range for partition")
        offsets = _offsets_of([c.size for c in stripped])
        return cls._built(indices.astype(INDEX_DTYPE), offsets, num_rows, ascending=True)

    @classmethod
    def empty(cls, num_rows: int) -> "CsrPartition":
        """A partition with no stripped classes (every row a singleton)."""
        return cls._built(
            np.empty(0, dtype=INDEX_DTYPE), np.zeros(1, dtype=INDEX_DTYPE), num_rows,
            ascending=True,
        )

    @classmethod
    def single_class(cls, num_rows: int) -> "CsrPartition":
        """The partition ``π_∅`` with one class containing every row."""
        if num_rows < 2:
            return cls.empty(num_rows)
        return cls._built(
            np.arange(num_rows, dtype=INDEX_DTYPE),
            np.array([0, num_rows], dtype=INDEX_DTYPE),
            num_rows,
            ascending=True,
        )

    @classmethod
    def _built(
        cls,
        indices: np.ndarray,
        offsets: np.ndarray,
        num_rows: int,
        ascending: bool | None,
    ) -> "CsrPartition":
        """Wrap int32 buffers a constructor or product built.

        Skips ``__init__``'s conversion and offset checks, which cost
        more than a dense-kernel product itself; the builder guarantees
        well-formed offsets.  ``ascending`` is True when the builder
        guarantees ascending rows inside every class, None when it
        cannot tell.
        """
        partition = cls.__new__(cls)
        partition._fill(indices, offsets, num_rows, ascending)
        return partition

    # ------------------------------------------------------------------
    # Raw buffer export and attach
    # ------------------------------------------------------------------

    def export_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw ``(indices, offsets)`` buffers as contiguous int32.

        Used by the disk store to write spills.  Returns the internal
        arrays when they are already contiguous; treat them as
        read-only.
        """
        return (
            np.ascontiguousarray(self._indices, dtype=INDEX_DTYPE),
            np.ascontiguousarray(self._offsets, dtype=INDEX_DTYPE),
        )

    @classmethod
    def attach(
        cls, indices: np.ndarray, offsets: np.ndarray, num_rows: int
    ) -> "CsrPartition":
        """Build a partition over *existing* int32 buffers without copying.

        The caller promises the buffers outlive the partition and are
        never mutated.  Row ids are trusted (a product over an id past
        the relation raises from its probe gather), except that a wider
        buffer is narrowed only when every id fits ``int32`` without
        changing.
        """
        partition = cls.__new__(cls)
        partition._wrap(indices, offsets, num_rows, _MAX_ROWS)
        return partition

    # ------------------------------------------------------------------
    # PartitionBase primitives
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def stripped_size(self) -> int:
        return int(self._indices.size)

    @property
    def num_classes(self) -> int:
        return int(self._offsets.size - 1)

    @property
    def class_sizes(self) -> np.ndarray:
        """Sizes of the stripped classes as an array (cached)."""
        if self._sizes is None:
            self._sizes = self._offsets[1:] - self._offsets[:-1]
        return self._sizes

    @property
    def indices(self) -> np.ndarray:
        """Row ids grouped by class (internal buffer; do not mutate)."""
        return self._indices

    @property
    def offsets(self) -> np.ndarray:
        """Class boundary offsets (internal buffer; do not mutate)."""
        return self._offsets

    def classes(self) -> Iterator[tuple[int, ...]]:
        for k in range(self.num_classes):
            start, end = self._offsets[k], self._offsets[k + 1]
            yield tuple(sorted(int(i) for i in self._indices[start:end]))

    def nbytes(self) -> int:
        """Approximate memory footprint in bytes (used by stores)."""
        return int(self._indices.nbytes + self._offsets.nbytes)

    # ------------------------------------------------------------------
    # Product and g3
    # ------------------------------------------------------------------

    def _labels(self) -> np.ndarray:
        """Class label of each stripped row, aligned with ``indices``.

        Cached: partitions are immutable and the label array is reused
        by every product/g3 call involving this partition.
        """
        if self._label_cache is None:
            self._label_cache = np.repeat(
                np.arange(self.num_classes, dtype=INDEX_DTYPE), self.class_sizes
            )
        return self._label_cache

    def _rows_ascending(self) -> bool:
        """Whether rows ascend inside every class (cached).

        True without a pass when the builder guaranteed it; otherwise
        one check over the buffers, e.g. of a partition read back from
        a disk-store spill.
        """
        if self._ascending is None:
            indices = self._indices
            labels = np.repeat(np.arange(self.num_classes), self.class_sizes)
            self._ascending = bool(
                np.all((indices[1:] > indices[:-1]) | (labels[1:] != labels[:-1]))
            )
        return self._ascending

    def product(
        self,
        other: "PartitionBase",
        workspace: PartitionWorkspace | None = None,
    ) -> "CsrPartition":
        """Stripped partition product ``π · π'`` (Lemma 3), vectorized.

        Rows that survive into the product are exactly those belonging
        to a stripped class in *both* inputs; they are grouped by the
        pair (class-in-self, class-in-other) — the canonical class
        order, shared with ``_product_small`` and
        :func:`batched_products` — and pairs occurring once are
        stripped.  Above the small-product threshold this is the pooled
        kernel on one task.
        """
        if not isinstance(other, CsrPartition):
            raise TypeError("CsrPartition can only be multiplied with CsrPartition")
        if other.num_rows != self._num_rows:
            raise DataError("partitions are over different relations")
        if self.stripped_size + other.stripped_size <= _SMALL_PRODUCT_THRESHOLD:
            return self._product_small(other)
        results = [None]
        _pooled_products([(self, other)], [0], results, self._num_rows, workspace)
        return results[0]

    def _as_lists(self) -> tuple[list[int], list[int]]:
        """``(offsets, indices)`` as plain lists (cached; small path)."""
        if self._list_cache is None:
            self._list_cache = (self._offsets.tolist(), self._indices.tolist())
        return self._list_cache

    def _probe_table(self) -> dict[int, int]:
        """``row -> class label`` dict (cached; small path).

        Building it once per partition instead of once per product
        matters: every partition participates in up to ``|R|`` products
        per level.
        """
        if self._table_cache is None:
            offsets, indices = self._as_lists()
            table: dict[int, int] = {}
            for k in range(len(offsets) - 1):
                for i in range(offsets[k], offsets[k + 1]):
                    table[indices[i]] = k
            self._table_cache = table
        return self._table_cache

    def _product_small(self, other: "CsrPartition") -> "CsrPartition":
        """Dict-probe product for small stripped sizes.

        Same algorithm as the paper's probe table (see
        :meth:`repro.partition.pure.PurePartition.product`), avoiding
        per-call numpy overhead on tiny inputs.  Classes are emitted in
        the canonical ``(class-in-self, class-in-other)`` order so the
        byte layout matches the vectorized path exactly — which side
        of ``_SMALL_PRODUCT_THRESHOLD`` a product lands on must never
        change the result's bytes.
        """
        table = self._probe_table()
        other_offsets, other_indices = other._as_lists()
        groups: dict[tuple[int, int], list[int]] = {}
        for k in range(len(other_offsets) - 1):
            for i in range(other_offsets[k], other_offsets[k + 1]):
                row = other_indices[i]
                label = table.get(row)
                if label is not None:
                    bucket = groups.get((label, k))
                    if bucket is None:
                        groups[(label, k)] = [row]
                    else:
                        bucket.append(row)
        flat: list[int] = []
        sizes: list[int] = []
        for key in sorted(groups):
            rows = groups[key]
            if len(rows) >= 2:
                flat.extend(rows)
                sizes.append(len(rows))
        if not sizes:
            return CsrPartition.empty(self._num_rows)
        return CsrPartition._built(
            np.asarray(flat, dtype=INDEX_DTYPE),
            _offsets_of(sizes),
            self._num_rows,
            _inherited_order(other),
        )

    def _g3_small(self, refined: "CsrPartition") -> int:
        """Dict-based g3 for small stripped sizes (paper's algorithm)."""
        refined_offsets, refined_indices = refined._as_lists()
        representative_size: dict[int, int] = {}
        for k in range(len(refined_offsets) - 1):
            representative_size[refined_indices[refined_offsets[k]]] = (
                refined_offsets[k + 1] - refined_offsets[k]
            )
        offsets, indices = self._as_lists()
        removed = 0
        for k in range(len(offsets) - 1):
            largest = 1
            for i in range(offsets[k], offsets[k + 1]):
                size = representative_size.get(indices[i])
                if size is not None and size > largest:
                    largest = size
            removed += offsets[k + 1] - offsets[k] - largest
        return removed

    def g3_error_count(
        self,
        refined: "PartitionBase",
        workspace: PartitionWorkspace | None = None,
    ) -> int:
        """Rows to remove for ``X → A`` to hold, given ``π_{X∪{A}}``.

        Every stripped class of ``refined`` lies wholly inside one
        stripped class of ``self`` (refinement), so the parent of a
        refined class is determined by any one of its rows.  The
        largest refined sub-class is kept per parent class; singleton
        sub-classes count as size 1.
        """
        if not isinstance(refined, CsrPartition):
            raise TypeError("CsrPartition can only be compared with CsrPartition")
        if refined.num_rows != self._num_rows:
            raise DataError("partitions are over different relations")
        if self.num_classes == 0:
            return 0
        if self.stripped_size + refined.stripped_size <= _SMALL_PRODUCT_THRESHOLD:
            return self._g3_small(refined)
        if workspace is None:
            workspace = PartitionWorkspace(self._num_rows)
        probe = workspace.probe
        # try/finally for the same reason as in ``product``: a raise
        # between scatter and reset must not leave the shared probe
        # dirty for the rest of the run.
        try:
            probe[self._indices] = self._labels()
            largest = np.ones(self.num_classes, dtype=np.int64)
            if refined.num_classes:
                first_rows = refined._indices[refined._offsets[:-1]]
                parents = probe[first_rows]
                valid = parents >= 0
                np.maximum.at(largest, parents[valid], refined.class_sizes[valid])
        finally:
            probe[self._indices] = -1
        return int(self.stripped_size - largest.sum())


# ----------------------------------------------------------------------
# Level-batched products
# ----------------------------------------------------------------------


def _inherited_order(right: CsrPartition) -> bool | None:
    """Row order of a product built from the right factor's index order.

    Such a product keeps each class's rows in the right factor's order,
    so it ascends when the right factor does.
    """
    return True if right._ascending else None


# Tasks with at least this many surviving rows are grouped one by one
# (still reusing the shared probe scatter): numpy's fixed per-call
# costs are already negligible against their own passes, and pooling
# them would only add the concatenation copies.  Smaller tasks are
# pooled into concatenated sub-batches.
_BATCH_SOLO_ROWS = 4096

# Element budget of one concatenated sub-batch.  Kept small so the
# pooled sort stays cache-resident.
_BATCH_ELEMENT_BUDGET = 1 << 16

# Relations with at most this many rows take the dense kernel in
# batched_products.  Its cost is a fixed number of numpy passes per
# chunk over tasks x rows elements, whatever the factors' stripped
# sizes, against ~15 numpy calls per task on the pooled path: it wins
# while per-call dispatch outweighs the O(rows) work per task.  On
# captured levelwise inputs it was 1.3-2.8x faster up to 2,796 rows and
# broke even at 3,500-5,000 rows (docs/ARCHITECTURE.md has the table).
_DENSE_MAX_ROWS = 2048

# Cap on tasks x rows of one dense chunk.  The chunk's key and mask
# arrays hold this many elements each, so transient memory stays a few
# MB for any relation under _DENSE_MAX_ROWS.
_DENSE_ELEMENT_BUDGET = 1 << 18


# A pooled-kernel call with at least two left factors whose right
# factors hold at least this many stripped rows in all runs its
# left-factor groups on the kernel's thread pool.  Below it, handing
# groups to threads costs more than the numpy passes it overlaps: a
# dfd walk's few products per call, or a level of short partitions.
_THREAD_MIN_ROWS = 1 << 16

# The kernel's thread pool, started by the first call that can use it.
# ``_pool_threads`` is its size: the CPUs this process may run on, read
# once (None until then), or 1 where the kernel stays on the calling
# thread.
_pool: concurrent.futures.ThreadPoolExecutor | None = None
_pool_threads: int | None = None
_pool_lock = threading.Lock()
_thread_state = threading.local()


def _kernel_pool() -> concurrent.futures.ThreadPoolExecutor | None:
    """The kernel's thread pool, or None where the kernel runs on one thread."""
    global _pool, _pool_threads
    with _pool_lock:
        if _pool_threads is None:
            try:
                _pool_threads = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity call on this platform
                _pool_threads = os.cpu_count() or 1
        if _pool_threads < 2:
            return None
        if _pool is None:
            _pool = concurrent.futures.ThreadPoolExecutor(
                _pool_threads, thread_name_prefix="repro-kernel"
            )
        return _pool


def _forget_pool() -> None:
    """In a forked child: drop the parent's pool, whose threads did not
    survive the fork (work handed to it would never run), and its lock,
    which another parent thread may have held."""
    global _pool, _pool_threads, _pool_lock
    _pool, _pool_threads, _pool_lock = None, None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _thread_workspace(num_rows: int) -> PartitionWorkspace:
    """The calling pool thread's own workspace for ``num_rows`` rows."""
    workspace = getattr(_thread_state, "workspace", None)
    if workspace is None or workspace.num_rows != num_rows:
        workspace = _thread_state.workspace = PartitionWorkspace(num_rows)
    return workspace


def _narrowest_key_dtype(keyspace: int) -> np.dtype:
    """Smallest signed dtype that can hold keys in ``[0, keyspace)``.

    numpy's stable sort is a radix sort for 16-bit integers (roughly
    an order of magnitude faster than the comparison sort used for
    wider types), so narrowing the dense kernel's keys on a small
    chunk is a genuine win, not just a memory saving.
    """
    if keyspace <= np.iinfo(np.int16).max:
        return np.dtype(np.int16)
    if keyspace <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _no_product(num_rows: int, counts: bool) -> "CsrPartition | int":
    """The result of a product with no stripped class."""
    return 0 if counts else CsrPartition.empty(num_rows)


def _offsets_of(sizes) -> np.ndarray:
    """The int32 CSR offsets of classes of the given sizes."""
    offsets = np.zeros(len(sizes) + 1, dtype=INDEX_DTYPE)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _dense_code_space(codes: np.ndarray) -> np.ndarray:
    """``codes``, re-encoded densely when their code space is sparse.

    bincount and the column-keyed kernel's keys span ``max(code) + 1``
    values, so a sparse column is first mapped to ranks (same
    partition, same class order).
    """
    if codes.size and int(codes.max()) > 2 * codes.size + 1024:
        _, codes = np.unique(codes, return_inverse=True)
    return codes


def _stable_order(keys: np.ndarray, keyspace: int) -> np.ndarray:
    """Stable argsort of non-negative ``keys`` below ``keyspace``.

    One pass per 16-bit digit, least significant first: numpy's stable
    sort of ``uint16`` is a linear-time radix sort, where wider keys
    take its O(n log n) comparison sort.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while keyspace > 1 << shift:
        digits = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digits, kind="stable")]
        shift += 16
    return order


# ``(position, rows, lx, ly, classes_x, y)`` for the product ``x · y``:
# the rows of ``y`` in a stripped class of ``x`` (in ``y``'s order) and
# their class labels in ``x`` and ``y``.
_Task = tuple[int, np.ndarray, np.ndarray, np.ndarray, int, "CsrPartition"]


def _group_survivors(
    tasks: Sequence[_Task], results: list, num_rows: int, counts: bool = False
) -> None:
    """Group the surviving rows of ``tasks`` by ``(lx, ly)`` in one sort.

    The tasks are laid end to end, each task's ``lx`` shifted past the
    class counts of the tasks before it, so one stable sort by the
    shifted ``lx`` keeps tasks contiguous and orders each one
    canonically (see "Left-label grouping" above).  The groups are
    split into results by :func:`_split_groups`.
    """
    sizes = [task[1].size for task in tasks]
    if len(tasks) == 1:
        _position, rows, keys, right, keyspace, _y = tasks[0]
    else:
        classes = [task[4] for task in tasks]
        keyspace = sum(classes)
        # Widened before the shift: under NEP 50 an int32 array plus a
        # Python int stays int32, and the shifted labels can exceed it.
        keys = np.concatenate([task[2] for task in tasks], dtype=np.int64)
        keys += np.repeat(np.cumsum(classes) - classes, sizes)
        rows = np.concatenate([task[1] for task in tasks])
        right = np.concatenate([task[3] for task in tasks])
    order = _stable_order(keys, keyspace)
    edges = _group_edges(keys[order], right[order])
    _split_groups(
        [(task[0], task[5]) for task in tasks], sizes, rows, order, edges,
        results, num_rows, counts,
    )


def _group_edges(*sorted_keys: np.ndarray) -> np.ndarray:
    """Where groups open in sorted rows: at each change of any of
    ``sorted_keys``, then one past the last row."""
    first = sorted_keys[0]
    opens = np.empty(first.size + 1, dtype=bool)
    opens[0] = opens[-1] = True
    np.not_equal(first[1:], first[:-1], out=opens[1:-1])
    for keys in sorted_keys[1:]:
        opens[1:-1] |= keys[1:] != keys[:-1]
    return opens.nonzero()[0]


def _split_groups(
    outputs: Sequence[tuple[int, CsrPartition]],
    sizes: Sequence[int],
    rows: np.ndarray,
    order: np.ndarray,
    edges: np.ndarray,
    results: list,
    num_rows: int,
    counts: bool,
) -> None:
    """Turn one sort's groups into the results of the tasks laid out in it.

    ``rows`` holds the tasks' rows end to end, ``sizes[t]`` of them for
    task ``t``; ``order`` sorts them task by task into groups, which
    start at ``edges`` (in sorted order; the last edge is the end).
    ``outputs[t]`` is task ``t``'s ``(position, right factor)``.
    ``results[position]`` receives each product, its singleton groups
    stripped, or with ``counts`` its ``e(π)``: rows minus groups.  A
    batch's results own their buffers.
    """
    # Groups opened before each task's end, i.e. up to that task.
    group_bounds = edges.searchsorted([0, *itertools.accumulate(sizes)]).tolist()
    if counts:
        for index, ((position, _y), size) in enumerate(zip(outputs, sizes)):
            results[position] = size - (group_bounds[index + 1] - group_bounds[index])
        return
    group_sizes = edges[1:] - edges[:-1]
    multi = group_sizes >= 2
    indices = rows[order[multi.repeat(group_sizes)]]
    offsets = _offsets_of(group_sizes[multi])
    # Each task's kept classes, as bounds into ``offsets``.
    class_bounds = _offsets_of(multi)[group_bounds].tolist()
    element_bounds = offsets[class_bounds].tolist()
    for index, (position, y) in enumerate(outputs):
        first, stop = class_bounds[index], class_bounds[index + 1]
        start, end = element_bounds[index], element_bounds[index + 1]
        if first == stop:
            results[position] = CsrPartition.empty(num_rows)
            continue
        task_indices = indices if len(outputs) == 1 else indices[start:end].copy()
        results[position] = CsrPartition._built(
            task_indices, offsets[first:stop + 1] - start, num_rows, _inherited_order(y)
        )


def _column_products(
    tasks: Sequence[tuple[int, CsrPartition, CsrPartition]],
    results: list,
    num_rows: int,
    counts: bool,
) -> None:
    """Solve ``(position, x, y)`` tasks whose ``y`` carries its column.

    ``x · y`` is ``x``'s rows grouped by their class in ``x`` and their
    value code in ``y``'s column.  Every task's ``x`` rows are laid end
    to end, each keyed by ``base + label_x * width_y + code_y``, where
    ``base`` shifts a task's keys past those of the tasks before it;
    one stable sort then groups every task at once.  Codes order as
    ``y``'s classes do, ``x``'s rows ascend and the sort is stable, so
    the groups come out in the canonical layout.  A row whose code is
    unique in the column forms a singleton group, stripped like the
    rest.  Labels come from the class sizes, so no factor gains a
    cached label array.
    """
    live = []
    for position, x, y in tasks:
        if x._offsets.size == 1 or y._offsets.size == 1:
            # A factor with no stripped classes kills every pair.
            results[position] = _no_product(num_rows, counts)
        else:
            live.append((position, x, y))
    if not live:
        return
    # Class c of a task's x spans the keys [base_c, base_c + width_y):
    # the bases step by width_y through each task's classes.
    strides = np.repeat(
        np.array([y._column_width for _position, _x, y in live], dtype=np.int64),
        [x._offsets.size - 1 for _position, x, _y in live],
    )
    bases = strides.cumsum()
    keyspace = int(bases[-1])
    bases -= strides
    keys = bases.repeat(np.concatenate([x.class_sizes for _position, x, _y in live]))
    keys += np.concatenate([y._column.take(x._indices) for _position, x, y in live])
    order = _stable_order(keys, keyspace)
    _split_groups(
        [(position, y) for position, _x, y in live],
        [x._indices.size for _position, x, _y in live],
        np.concatenate([x._indices for _position, x, _y in live]),
        order, _group_edges(keys[order]), results, num_rows, counts,
    )


def _dense_products(
    tasks: Sequence[tuple[int, CsrPartition, CsrPartition]],
    results: list,
    num_rows: int,
    counts: bool = False,
) -> None:
    """Solve a chunk of ``(position, x, y)`` tasks over one label matrix.

    Row ``f`` of the matrix holds, for every row of the relation, its
    class label in the chunk's ``f``-th distinct factor, or -1 where
    that factor stripped it.  A task's pair key per row is
    ``label_x * classes_y + label_y``, or a distinct key past every real
    one where either factor stripped the row.  Tagged with the row id,
    the keys of a task are distinct, so one row-wise sort of the
    ``tasks x rows`` key matrix groups every task at once and leaves row
    ids ascending within a class, which matches the per-triple path
    whenever the right factor ascends.

    Labels come from the factors' offsets, so no factor gains a cached
    label array.  Each result owns its buffers (no views into the chunk
    arrays), so store byte accounting and spills stay truthful.

    With ``counts`` the result is each product's ``e(π)`` instead: the
    untagged keys are sorted, their repeats counted, and nothing else
    is built.
    """
    slots: dict[int, int] = {}
    factors: list[CsrPartition] = []
    left: list[int] = []
    right: list[int] = []
    for _position, x, y in tasks:
        slot = slots.get(id(x))
        if slot is None:
            slot = slots[id(x)] = len(factors)
            factors.append(x)
        left.append(slot)
        slot = slots.get(id(y))
        if slot is None:
            slot = slots[id(y)] = len(factors)
            factors.append(y)
        right.append(slot)
    count = len(tasks)
    left_ids = np.array(left)
    right_ids = np.array(right)
    classes = np.array([f._offsets.size - 1 for f in factors], dtype=np.int64)
    right_classes = classes[right_ids]
    # Real pair keys lie below classes_x * classes_y <= sentinel; a row
    # stripped from either factor gets key sentinel + row, a singleton.
    sentinel = int((classes[left_ids] * right_classes).max())
    keyspace = sentinel + num_rows
    dtype = _narrowest_key_dtype(keyspace if counts else keyspace * num_rows)

    # The factors' buffers laid end to end.  Shifted by each factor's
    # start, the concatenated offsets become one ascending boundary
    # list, with a zero-size gap class between consecutive factors.
    rows = np.concatenate([f._indices for f in factors], dtype=np.int64)
    if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= num_rows):
        # The per-triple path raises from its probe gather; a shifted
        # row would silently land in another factor's matrix row.
        raise IndexError("partition row id out of range for the relation")
    bounds = np.concatenate([f._offsets for f in factors], dtype=np.int64)
    entries = classes + 1
    entries_end = np.cumsum(entries)
    stripped = bounds[entries_end - 1]
    bounds += np.repeat(np.cumsum(stripped) - stripped, entries)
    class_sizes = np.diff(bounds)
    labels = np.repeat(
        np.arange(class_sizes.size) - np.repeat(entries_end - entries, entries)[:-1],
        class_sizes,
    )

    # The label matrix: one scatter of every factor's labels into its
    # row.
    matrix = np.full(len(factors) * num_rows, -1, dtype=dtype)
    rows += np.repeat(np.arange(0, len(factors) * num_rows, num_rows), stripped)
    matrix[rows] = labels
    matrix = matrix.reshape(len(factors), num_rows)

    # Each task's pair keys, tagged with the row id (key * rows + row):
    # the tagged values of a task are distinct, so a plain row-wise
    # sort orders rows by key and, within a key, by row id.
    positions = np.arange(num_rows, dtype=dtype)
    lhs = matrix[left_ids]
    rhs = matrix[right_ids]
    keys = lhs * right_classes.astype(dtype)[:, None]
    keys += rhs
    np.putmask(keys, (lhs | rhs) < 0, positions + sentinel)
    if counts:
        keys.sort(axis=1)
        # A class of k rows repeats its key k - 1 times: e(π).
        errors = np.count_nonzero(keys[:, 1:] == keys[:, :-1], axis=1)
        for (position, _x, _y), error in zip(tasks, errors.tolist()):
            results[position] = error
        return
    keys *= num_rows
    keys += positions
    keys.sort(axis=1)
    tagged = keys.ravel()
    pair_keys = tagged // num_rows
    sorted_rows = tagged - pair_keys * num_rows

    # Classes are runs of equal keys inside a task; a row survives when
    # its key equals a neighbour's, and opens a class when not the
    # previous one's.
    same = np.empty(tagged.size + 1, dtype=bool)
    np.equal(pair_keys[1:], pair_keys[:-1], out=same[1:-1])
    same[::num_rows] = False
    kept = same[:-1] | same[1:]
    opens = kept & ~same[:-1]
    kept_rows = sorted_rows[kept].astype(INDEX_DTYPE)
    task_elements = np.count_nonzero(kept.reshape(count, num_rows), axis=1)
    task_groups = np.count_nonzero(opens.reshape(count, num_rows), axis=1)
    element_end = np.cumsum(task_elements)
    element_start = element_end - task_elements
    group_end = np.cumsum(task_groups)

    # Every task's offsets side by side in one array: task t's kept
    # classes start at [group_start[t] + t, group_end[t] + t), then
    # comes its total, so its offsets are one contiguous slice.
    task_ids = np.arange(count)
    task_of_group = np.repeat(task_ids, task_groups)
    offsets = np.empty(int(group_end[-1]) + count, dtype=INDEX_DTYPE)
    offsets[np.arange(task_of_group.size) + task_of_group] = (
        np.flatnonzero(opens[kept]) - element_start[task_of_group]
    )
    offsets[group_end + task_ids] = task_elements

    spans = zip(
        [position for position, _x, _y in tasks],
        element_start.tolist(),
        element_end.tolist(),
        (group_end - task_groups + task_ids).tolist(),
        (group_end + task_ids + 1).tolist(),
    )
    built, empty = CsrPartition._built, CsrPartition.empty
    for position, element_first, element_stop, offset_first, offset_stop in spans:
        if element_first == element_stop:
            results[position] = empty(num_rows)
        else:
            results[position] = built(
                kept_rows[element_first:element_stop].copy(),
                offsets[offset_first:offset_stop].copy(),
                num_rows,
                True,
            )


def _pooled_products(
    pairs: Sequence[tuple[CsrPartition, CsrPartition]],
    positions: Iterable[int],
    results: list,
    num_rows: int,
    workspace: PartitionWorkspace | None,
    counts: bool = False,
) -> None:
    """Solve the tasks at ``positions`` over shared probe scatters.

    In a call whose right factors hold fewer than ``_THREAD_MIN_ROWS``
    stripped rows, the tasks whose right factor carries its column and
    whose left factor's rows ascend take the column-keyed path instead
    (:func:`_column_products`; see "Column-keyed products" above).
    The other tasks are taken grouped by left factor (in order of first
    appearance; each result depends only on its own pair), so each
    left factor is scattered once per call (:func:`_left_factor_tasks`).
    A call with several groups and at least ``_THREAD_MIN_ROWS``
    right-factor rows runs its groups on the kernel's thread pool (see
    "Kernel threads" above).  Tasks of at least ``_BATCH_SOLO_ROWS``
    surviving rows are grouped one at a time, smaller ones pooled in
    group order into sub-batches of at most ``_BATCH_ELEMENT_BUDGET``
    rows, each grouped by one sort (:func:`_group_survivors`).  With
    ``counts`` every result is the product's ``e(π)`` instead of the
    partition.
    """
    positions = list(positions)
    right_rows = sum(pairs[position][1]._indices.size for position in positions)
    if right_rows < _THREAD_MIN_ROWS:
        keyed = []
        probed = []
        for position in positions:
            x, y = pairs[position]
            if y._column is not None and x._rows_ascending():
                keyed.append((position, x, y))
            else:
                probed.append(position)
        if keyed:
            _column_products(keyed, results, num_rows, counts)
            if not probed:
                return
        positions = probed
    by_left: dict[int, list[int]] = {}
    for position in positions:
        by_left.setdefault(id(pairs[position][0]), []).append(position)
    groups = list(by_left.values())
    pool = _kernel_pool() if len(groups) >= 2 and right_rows >= _THREAD_MIN_ROWS else None
    if pool is None:
        if workspace is None:
            workspace = PartitionWorkspace(num_rows)
        pooled = [
            task
            for group in groups
            for task in _left_factor_tasks(pairs, group, results, num_rows, workspace, counts)
        ]
    else:
        futures = [
            pool.submit(_left_factor_tasks, pairs, group, results, num_rows, None, counts)
            for group in groups
        ]
        # Every group finishes (and resets its probe) before a failure
        # is raised, so no pool thread still works on this call after.
        concurrent.futures.wait(futures)
        pooled = [task for future in futures for task in future.result()]
    batch: list[_Task] = []
    elements = 0
    for task in pooled:
        if batch and elements + task[1].size > _BATCH_ELEMENT_BUDGET:
            _group_survivors(batch, results, num_rows, counts)
            batch, elements = [], 0
        batch.append(task)
        elements += task[1].size
    if batch:
        _group_survivors(batch, results, num_rows, counts)


def _left_factor_tasks(
    pairs: Sequence[tuple[CsrPartition, CsrPartition]],
    positions: Sequence[int],
    results: list,
    num_rows: int,
    workspace: PartitionWorkspace | None,
    counts: bool,
) -> list[_Task]:
    """Solve the tasks at ``positions``, which share a left factor ``x``.

    ``x`` is scattered into the probe once for all of them; each task's
    surviving rows are gathered from its right factor.  Tasks of at
    least ``_BATCH_SOLO_ROWS`` survivors are grouped here; the smaller
    ones are returned, in order, for the caller to pool.  Without a
    ``workspace`` (on a pool thread) the thread's own is used.
    """
    x = pairs[positions[0]][0]
    if x._offsets.size == 1:
        # A factor with no stripped classes kills every pair.
        for position in positions:
            results[position] = _no_product(num_rows, counts)
        return []
    if workspace is None:
        workspace = _thread_workspace(num_rows)
    # One scatter serves every task of ``x`` in the call, so its labels
    # are not cached here: a factor that is only ever scattered (a dfd
    # chain partition) stays half the size.
    labels = x._label_cache
    if labels is None:
        labels = np.repeat(np.arange(x.num_classes, dtype=INDEX_DTYPE), x.class_sizes)
    small: list[_Task] = []
    probe = workspace.probe
    # The reset must run even when a gather raises (e.g. a corrupt
    # attached partition with out-of-range row ids): the workspace is
    # shared by the whole run, and a dirty probe silently corrupts every
    # later product.
    try:
        probe[x._indices] = labels
        for position in positions:
            y = pairs[position][1]
            if y._offsets.size == 1:
                results[position] = _no_product(num_rows, counts)
                continue
            in_x = probe[y._indices]
            survivors = np.flatnonzero(in_x >= 0)
            if survivors.size == 0:
                results[position] = _no_product(num_rows, counts)
                continue
            task = (
                position,
                y._indices.take(survivors),
                in_x.take(survivors),
                y._labels().take(survivors),
                x.num_classes,
                y,
            )
            if survivors.size >= _BATCH_SOLO_ROWS:
                _group_survivors([task], results, num_rows, counts)
            else:
                small.append(task)
    finally:
        probe[x._indices] = -1
    return small


def batched_products(
    pairs: Sequence[tuple["CsrPartition", "CsrPartition"]],
    workspace: PartitionWorkspace | None = None,
) -> list["CsrPartition"]:
    """Compute many partition products in a few shared numpy passes.

    Semantically equivalent to ``[x.product(y, workspace) for x, y in
    pairs]`` — byte-identical results in the same order — but cheaper
    on a level's worth of tasks.  The number of rows selects the kernel:

    * at most ``_DENSE_MAX_ROWS`` rows: the dense kernel
      (:func:`_dense_products`) solves chunks of at most
      ``_DENSE_ELEMENT_BUDGET`` tasks x rows elements, each in a fixed
      number of numpy passes.  A task whose right factor's rows do not
      ascend inside its classes (a partition built from raw buffers
      outside the canonical layout) goes to the pooled kernel instead,
      since only that kernel keeps the right factor's row order;
    * more rows: the pooled kernel (:func:`_pooled_products`) shares
      probe scatters across tasks with one left factor, groups each
      task's surviving rows by their left label and pools small tasks
      into one grouping per sub-batch.

    Neither detours through the dict-probe path of ``product``: both
    amortize the per-call numpy overhead that path exists to dodge.
    """
    return _batched(pairs, workspace, counts=False)


def batched_error_counts(
    pairs: Sequence[tuple["CsrPartition", "CsrPartition"]],
    workspace: PartitionWorkspace | None = None,
) -> list[int]:
    """``e(x · y)`` for every pair, without building the products.

    Equal to ``[p.error_count for p in batched_products(pairs,
    workspace)]``, through the same kernel selection; each kernel stops
    once the surviving rows are grouped.
    """
    return _batched(pairs, workspace, counts=True)


def _batched(
    pairs: Sequence[tuple["CsrPartition", "CsrPartition"]],
    workspace: PartitionWorkspace | None,
    *,
    counts: bool,
) -> list:
    """Kernel selection shared by :func:`batched_products` and
    :func:`batched_error_counts`."""
    if not pairs:
        return []
    num_rows = pairs[0][0].num_rows
    # Below two rows no product has a stripped class; the pooled kernel
    # handles that degenerate case without a zero-width matrix.
    dense_rows = 2 <= num_rows <= _DENSE_MAX_ROWS
    results: list = [None] * len(pairs)
    dense: list[tuple[int, CsrPartition, CsrPartition]] = []
    pooled: list[int] = []
    for position, (x, y) in enumerate(pairs):
        if not isinstance(x, CsrPartition) or not isinstance(y, CsrPartition):
            raise TypeError("batched_products requires CsrPartition factors")
        if x.num_rows != num_rows or y.num_rows != num_rows:
            raise DataError("partitions are over different relations")
        if not dense_rows:
            pooled.append(position)
        elif x._offsets.size == 1 or y._offsets.size == 1:
            # A factor with no stripped classes kills every pair.
            results[position] = _no_product(num_rows, counts)
        elif counts or y._rows_ascending():
            # Row order inside classes does not change a count.
            dense.append((position, x, y))
        else:
            pooled.append(position)
    step = max(1, _DENSE_ELEMENT_BUDGET // max(num_rows, 1))
    for start in range(0, len(dense), step):
        _dense_products(dense[start:start + step], results, num_rows, counts)
    if pooled:
        _pooled_products(pairs, pooled, results, num_rows, workspace, counts)
    return results
