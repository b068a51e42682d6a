"""Vectorized stripped-partition engine (CSR layout over numpy arrays).

This is the engine the TANE driver actually runs on.  A partition is
stored in *compressed sparse row* style:

* ``indices`` — one ``int64`` array of row ids, grouped by class;
* ``offsets`` — class boundaries (``offsets[k] .. offsets[k+1]`` is
  class ``k``).

This realizes the extended version's "more compact representation of
partitions" optimization: memory per partition is two flat arrays, and
both the partition product and the ``g3`` computation become a handful
of vectorized passes instead of per-row Python work.

Canonical layout
----------------
Every constructor and product path emits stripped classes in **one**
canonical order, so the byte layout of a partition never depends on
which code path produced it (checkpoint adoption, shared-memory
shipping, and golden comparisons all compare raw buffers):

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

Products take one of three paths, selected by input properties only:

* a single ``product`` call whose stripped sizes sum to at most
  ``_SMALL_PRODUCT_THRESHOLD`` probes a Python dict
  (``_product_small``); larger ones scatter into the shared probe and
  sort pair keys;
* :func:`batched_products` over a relation of at most
  ``_DENSE_MAX_ROWS`` rows builds one label matrix for a chunk's
  factors and groups every task with one row-wise sort — a fixed
  number of numpy passes per chunk, whatever the number of tasks;
* :func:`batched_products` over a taller relation reuses probe
  scatters across tasks sharing a left factor and pools small tasks
  into one stable argsort per sub-batch.

:func:`batched_error_counts` runs the same two kernels but stops once
every task's pair keys are sorted: a product's ``e(π) = ||π̂|| - |π̂|``
is the number of sorted keys equal to their predecessor, so no result
partition is built.  The search uses it for a level whose partitions
are only ever needed for their ranks (Lemma 2).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import DataError
from repro.partition.base import PartitionBase

__all__ = ["CsrPartition", "PartitionWorkspace", "batched_error_counts", "batched_products"]


class PartitionWorkspace:
    """Reusable scratch space for partition products and g3 tests.

    Holds one probe array of length ``num_rows`` initialized to ``-1``.
    Operations label only the rows they touch and reset them
    afterwards, so a single workspace can be shared by an entire TANE
    run (one per thread).
    """

    __slots__ = ("num_rows", "probe")

    def __init__(self, num_rows: int) -> None:
        self.num_rows = num_rows
        self.probe = np.full(num_rows, -1, dtype=np.int64)


# Below this total stripped size, a single ``product`` call probes a
# plain-Python dict instead of the vectorized path: each numpy call
# costs a few microseconds of fixed overhead, and a product issues ~15
# of them.  Only single ``product`` calls take this path: the node
# engine of the dfd strategy, product chains from the singletons
# (checkpoint restore and the ablation strategy) and the pooled
# kernel's keyspace fallback.  A levelwise run computes its products
# through ``batched_products`` and ``batched_error_counts``, whose
# kernels never take it.
_SMALL_PRODUCT_THRESHOLD = 1024


class CsrPartition(PartitionBase):
    """Stripped partition in CSR layout."""

    __slots__ = (
        "_indices", "_offsets", "_num_rows", "_error_count",
        "_sizes", "_label_cache", "_list_cache", "_table_cache", "_ascending",
    )

    def __init__(self, indices: np.ndarray, offsets: np.ndarray, num_rows: int) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
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
        if int(codes.max()) > 2 * num_rows + 1024:
            # Sparse code space: bincount would allocate max(code)+1
            # counters. Re-encode densely first (same partition).
            _, codes = np.unique(codes, return_inverse=True)
        counts = np.bincount(codes)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        keep = counts[sorted_codes] >= 2
        indices = order[keep]
        kept_sizes = counts[counts >= 2]
        offsets = np.concatenate(([0], np.cumsum(kept_sizes)))
        # The stable argsort keeps each class's rows ascending.
        return cls._built(indices, offsets, num_rows, ascending=True)

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
        offsets = np.concatenate(([0], np.cumsum([c.size for c in stripped])))
        return cls._built(indices, offsets, num_rows, ascending=True)

    @classmethod
    def empty(cls, num_rows: int) -> "CsrPartition":
        """A partition with no stripped classes (every row a singleton)."""
        return cls._built(
            np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), num_rows,
            ascending=True,
        )

    @classmethod
    def single_class(cls, num_rows: int) -> "CsrPartition":
        """The partition ``π_∅`` with one class containing every row."""
        if num_rows < 2:
            return cls.empty(num_rows)
        return cls._built(
            np.arange(num_rows, dtype=np.int64),
            np.array([0, num_rows], dtype=np.int64),
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
        """Wrap int64 buffers a constructor or product built.

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
    # Buffer export / attach (shared-memory shipment)
    # ------------------------------------------------------------------

    def export_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw ``(indices, offsets)`` buffers as contiguous int64.

        Used by :mod:`repro.parallel.shm` to copy a partition into a
        shared-memory block (and by workers to pickle products back).
        Returns the internal arrays when they are already contiguous;
        treat them as read-only.
        """
        return (
            np.ascontiguousarray(self._indices, dtype=np.int64),
            np.ascontiguousarray(self._offsets, dtype=np.int64),
        )

    @classmethod
    def attach(
        cls, indices: np.ndarray, offsets: np.ndarray, num_rows: int
    ) -> "CsrPartition":
        """Build a partition over *existing* int64 buffers without copying.

        The caller promises the buffers outlive the partition and are
        never mutated — the contract under which workers reconstruct
        partitions directly over a shared-memory segment.
        """
        return cls(indices, offsets, num_rows)

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
                np.arange(self.num_classes, dtype=np.int64), self.class_sizes
            )
        return self._label_cache

    def _rows_ascending(self) -> bool:
        """Whether rows ascend inside every class (cached).

        True without a pass when the builder guaranteed it; otherwise
        one check over the buffers, e.g. of a partition attached to
        shared memory or read back from a disk-store spill.
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
        stripped.
        """
        if not isinstance(other, CsrPartition):
            raise TypeError("CsrPartition can only be multiplied with CsrPartition")
        if other.num_rows != self._num_rows:
            raise DataError("partitions are over different relations")
        if self.stripped_size + other.stripped_size <= _SMALL_PRODUCT_THRESHOLD:
            return self._product_small(other)
        if workspace is None:
            workspace = PartitionWorkspace(self._num_rows)
        probe = workspace.probe
        # The reset must run even when the gather raises (e.g. a
        # corrupt attached partition with out-of-range row ids): the
        # workspace is shared by the whole run, and a dirty probe
        # silently corrupts every later product.
        try:
            probe[self._indices] = self._labels()
            in_self = probe[other._indices]
            mask = in_self >= 0
            rows = other._indices[mask]
        finally:
            probe[self._indices] = -1
        if rows.size == 0:
            return CsrPartition.empty(self._num_rows)
        pair_key = in_self[mask] * (other.num_classes or 1) + other._labels()[mask]
        order = np.argsort(pair_key, kind="stable")
        sorted_key = pair_key[order]
        sorted_rows = rows[order]
        new_group = np.empty(sorted_key.size, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_group[1:])
        group_id = np.cumsum(new_group) - 1
        group_sizes = np.bincount(group_id)
        keep_elem = group_sizes[group_id] >= 2
        indices = sorted_rows[keep_elem]
        kept_sizes = group_sizes[group_sizes >= 2]
        offsets = np.concatenate(([0], np.cumsum(kept_sizes)))
        return CsrPartition._built(
            indices, offsets, self._num_rows, _inherited_order(other)
        )

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
        new_offsets = [0]
        for size in sizes:
            new_offsets.append(new_offsets[-1] + size)
        return CsrPartition._built(
            np.asarray(flat, dtype=np.int64),
            np.asarray(new_offsets, dtype=np.int64),
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


# Pair keys of batched tasks are packed into disjoint int64 ranges; a
# sub-batch is flushed before its cumulative keyspace could overflow.
_MAX_BATCH_KEYSPACE = 2 ** 62

# Tasks with at least this many surviving rows are sort-dominated:
# numpy's fixed per-call costs are already negligible against an
# O(n log n) argsort of this size, and merging them into a larger
# concatenated sort only makes the sort slower.  They are solved
# one-by-one (still reusing the shared probe scatter); only smaller
# tasks are pooled into concatenated sub-batches.
_BATCH_SOLO_ROWS = 4096

# Element budget of one concatenated sub-batch.  Kept small so the
# pooled sort stays cache-resident and the key dtype can often narrow.
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


def _narrowest_key_dtype(keyspace: int) -> np.dtype:
    """Smallest signed dtype that can hold keys in ``[0, keyspace)``.

    numpy's stable sort is a radix sort for 16-bit integers (roughly
    an order of magnitude faster than the comparison sort used for
    wider types), so narrowing the packed keys of a small-keyspace
    sub-batch is a genuine win, not just a memory saving.
    """
    if keyspace <= np.iinfo(np.int16).max:
        return np.dtype(np.int16)
    if keyspace <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _no_product(num_rows: int, counts: bool) -> "CsrPartition | int":
    """The result of a product with no stripped class."""
    return 0 if counts else CsrPartition.empty(num_rows)


def _repeats(sorted_keys: np.ndarray) -> np.ndarray:
    """Where a sorted key equals its predecessor (along the last axis).

    Over one task's sorted pair keys their count is the product's
    ``e(π)``: a class of ``k`` rows contributes ``k - 1``, a singleton
    nothing.
    """
    return sorted_keys[..., 1:] == sorted_keys[..., :-1]


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
    rows = np.concatenate([f._indices for f in factors])
    if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= num_rows):
        # The per-triple path raises from its probe gather; a shifted
        # row would silently land in another factor's matrix row.
        raise IndexError("partition row id out of range for the relation")
    bounds = np.concatenate([f._offsets for f in factors])
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
        errors = np.count_nonzero(_repeats(keys), axis=1)
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
    kept_rows = sorted_rows[kept].astype(np.int64)
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
    offsets = np.empty(int(group_end[-1]) + count, dtype=np.int64)
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


def _solve_product_batch(
    segments: list[tuple[int, np.ndarray, np.ndarray, int, bool | None]],
    results: list,
    num_rows: int,
    counts: bool = False,
) -> None:
    """Group every segment's surviving rows with one shared argsort.

    ``segments`` are ``(position, rows, pair_keys, keyspace, order)``
    per task, ``order`` being the result's row order (see
    :func:`_inherited_order`); keys are shifted into disjoint ranges (task order), so one
    stable sort of the concatenation orders every task's rows by its
    pair key while keeping tasks contiguous — the per-task slices then
    need only cheap boundary arithmetic, no further sorting.  With
    ``counts`` each task's result is its ``e(π)``, read off the sorted
    keys alone.
    """
    bases: list[int] = []
    base = 0
    for _position, _rows, _keys, keyspace, _order in segments:
        bases.append(base)
        base += keyspace
    dtype = _narrowest_key_dtype(base)
    all_keys = np.concatenate(
        [
            (keys + shift).astype(dtype, copy=False)
            for (_, _, keys, _, _), shift in zip(segments, bases)
        ]
    )
    if counts:
        # Key ranges are disjoint, so no repeat straddles two tasks.
        repeats = np.concatenate(([0], np.cumsum(_repeats(np.sort(all_keys)))))
        start = 0
        for position, rows, _keys, _keyspace, _order in segments:
            end = start + rows.size
            results[position] = int(repeats[end - 1] - repeats[start])
            start = end
        return
    all_rows = np.concatenate([segment[1] for segment in segments])
    order = np.argsort(all_keys, kind="stable")
    sorted_keys = all_keys[order]
    sorted_rows = all_rows[order]
    new_group = np.empty(sorted_keys.size, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
    group_id = np.cumsum(new_group) - 1
    group_sizes = np.bincount(group_id)
    keep_elem = group_sizes[group_id] >= 2
    start = 0
    for position, rows, _keys, _keyspace, row_order in segments:
        end = start + rows.size
        task_keep = keep_elem[start:end]
        indices = sorted_rows[start:end][task_keep]
        if indices.size == 0:
            results[position] = CsrPartition.empty(num_rows)
        else:
            # Key ranges are disjoint, so this task's groups are
            # exactly group ids group_id[start] .. group_id[end-1].
            task_sizes = group_sizes[group_id[start]:group_id[end - 1] + 1]
            kept_sizes = task_sizes[task_sizes >= 2]
            offsets = np.concatenate(([0], np.cumsum(kept_sizes)))
            results[position] = CsrPartition._built(
                indices, offsets, num_rows, row_order
            )
        start = end


def _solve_product_single(
    rows: np.ndarray,
    pair_keys: np.ndarray,
    num_rows: int,
    row_order: bool | None,
    counts: bool = False,
) -> "CsrPartition | int":
    """Group one task's surviving rows (the grouping tail of ``product``),
    or with ``counts`` return the product's ``e(π)``."""
    if counts:
        return int(np.count_nonzero(_repeats(np.sort(pair_keys))))
    order = np.argsort(pair_keys, kind="stable")
    sorted_key = pair_keys[order]
    sorted_rows = rows[order]
    new_group = np.empty(sorted_key.size, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_group[1:])
    group_id = np.cumsum(new_group) - 1
    group_sizes = np.bincount(group_id)
    keep_elem = group_sizes[group_id] >= 2
    indices = sorted_rows[keep_elem]
    if indices.size == 0:
        return CsrPartition.empty(num_rows)
    kept_sizes = group_sizes[group_sizes >= 2]
    offsets = np.concatenate(([0], np.cumsum(kept_sizes)))
    return CsrPartition._built(indices, offsets, num_rows, row_order)


def _pooled_products(
    pairs: Sequence[tuple[CsrPartition, CsrPartition]],
    positions: Iterable[int],
    results: list,
    num_rows: int,
    workspace: PartitionWorkspace | None,
    counts: bool = False,
) -> None:
    """Solve the tasks at ``positions`` over shared probe scatters.

    Consecutive tasks sharing a left factor reuse one scatter; tasks
    below ``_BATCH_SOLO_ROWS`` surviving rows are pooled into sub-batches
    grouped by one stable argsort each, larger ones solved one at a
    time.  A task whose pair-key space alone exceeds the int64 packing
    budget falls back to the per-triple kernel.  With ``counts`` every
    result is the product's ``e(π)`` instead of the partition.
    """
    if workspace is None:
        workspace = PartitionWorkspace(num_rows)
    probed: list[tuple[int, np.ndarray, np.ndarray, int, bool | None]] = []
    probe = workspace.probe
    scattered: CsrPartition | None = None
    try:
        for position in positions:
            x, y = pairs[position]
            keyspace = x.num_classes * y.num_classes
            if keyspace == 0:
                # A factor with no stripped classes kills every pair.
                results[position] = _no_product(num_rows, counts)
                continue
            if keyspace > _MAX_BATCH_KEYSPACE:
                # Per-triple fallback resets the probe itself; drop our
                # scatter first so the next task re-scatters.
                if scattered is not None:
                    probe[scattered._indices] = -1
                    scattered = None
                product = x.product(y, workspace)
                results[position] = product.error_count if counts else product
                continue
            if scattered is not x:
                if scattered is not None:
                    probe[scattered._indices] = -1
                scattered = x
                probe[x._indices] = x._labels()
            in_x = probe[y._indices]
            mask = in_x >= 0
            rows = y._indices[mask]
            if rows.size == 0:
                results[position] = _no_product(num_rows, counts)
                continue
            pair_keys = in_x[mask] * y.num_classes + y._labels()[mask]
            if rows.size >= _BATCH_SOLO_ROWS:
                results[position] = _solve_product_single(
                    rows, pair_keys, num_rows, _inherited_order(y), counts
                )
                continue
            probed.append((position, rows, pair_keys, keyspace, _inherited_order(y)))
    finally:
        if scattered is not None:
            probe[scattered._indices] = -1
    # Flush in sub-batches bounded by the int64 key-packing budget and
    # by an element budget (a cache-resident sort, and a small pooled
    # keyspace often narrows the key dtype all the way to radix range).
    cursor = 0
    while cursor < len(probed):
        stop, keys_total, elements = cursor, 0, 0
        while (
            stop < len(probed)
            and keys_total + probed[stop][3] <= _MAX_BATCH_KEYSPACE
            and (stop == cursor or elements + probed[stop][1].size <= _BATCH_ELEMENT_BUDGET)
        ):
            keys_total += probed[stop][3]
            elements += probed[stop][1].size
            stop += 1
        _solve_product_batch(probed[cursor:stop], results, num_rows, counts)
        cursor = stop


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
      probe scatters across tasks with one left factor and pools small
      tasks into one stable argsort per sub-batch.

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
    after sorting its pair keys.
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
