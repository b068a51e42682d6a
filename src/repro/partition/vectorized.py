"""Vectorized stripped-partition engine (CSR layout over numpy arrays).

This is the engine the TANE driver actually runs on.  A partition is
stored in *compressed sparse row* style:

* ``indices`` — one ``int32`` array of row ids, grouped by class;
* ``offsets`` — class boundaries (``offsets[k] .. offsets[k+1]`` is
  class ``k``).

Every index buffer is ``int32`` — row ids, offsets, class labels, the
workspace probe — and so are the disk spills that carry them.  A
relation of ``2**31`` rows or more is refused.

This realizes the extended version's "more compact representation of
partitions" optimization: memory per partition is two flat arrays, and
the partition product becomes a handful of vectorized passes instead
of per-row Python work.

Canonical layout
----------------
Every constructor and product path emits stripped classes in **one**
canonical order, so the byte layout of a partition never depends on
which code path produced it (checkpoint adoption, disk-store spills
and golden comparisons all compare raw buffers):

* :meth:`CsrPartition.from_column` orders classes by value code;
* products (``product``, :func:`batched_products`,
  :meth:`LevelBlock.products`) order classes by the pair
  ``(class-in-self, class-in-other)``, with rows inside a class in the
  right factor's index order;
* a level block's label rows number the classes in those same orders:
  the singletons' block (:meth:`LevelBlock.from_columns`) by value
  code, a product row by ``(class-in-self, class-in-other)``, so label
  ``k`` of a row is class ``k`` of the CSR partition any product path
  builds for its mask;
* rows inside every class ascend by row id.  ``from_column``,
  ``from_classes``, ``empty`` and ``single_class`` emit ascending
  classes, and a product inherits the order from its right factor, so
  every partition the program builds is ascending.  A partition
  wrapped around raw buffers (``CsrPartition(...)``, a disk-store
  spill) is checked once, lazily, by
  :meth:`CsrPartition._rows_ascending`; a non-ascending left factor
  keeps its products off the column-keyed path (below).  Label rows
  hold no row order.

Each partition form has one product kernel, whatever the relation's
height:

* level blocks (below) take the dense kernel (:func:`_grouped_rows`
  through :func:`_block_products`), which groups a chunk of tasks with
  one row-wise sort of their pair keys — a fixed number of numpy passes
  per chunk, whatever the number of tasks;
* CSR partitions take the pooled kernel (:func:`_pooled_products`),
  whether one ``product`` or a :func:`batched_products` call: a call
  whose right factors hold fewer than ``_THREAD_MIN_ROWS`` stripped
  rows solves every task whose right factor was built by
  ``from_column`` (and whose left factor ascends) by grouping the left
  factor's rows by their value code, every such task in one sort
  (below); the other tasks reuse probe scatters across tasks sharing a
  left factor and group each task's surviving rows by their left label
  (below).

Left-label grouping
-------------------
The rows of ``y`` that survive the probe of ``x · y`` are read in
``y``'s index order, which is class by class, so their right label
``ly`` never decreases.  A *stable* sort on the left label ``lx`` alone
therefore gives the permutation of a stable sort of the pair keys
``lx * classes_y + ly``, and a class opens wherever ``lx`` or ``ly``
changes.  A stable sort is one value sort (:func:`_stable_sort`): each
key is packed above its position into a 32-bit word where both fit,
else a 64-bit one, and numpy sorts the words with its vectorized
sort; the sorted words give the order and the sorted keys at once.
Keys and positions wider than 64 bits fall back to numpy's stable
argsort.  Each task (:func:`_group_solo`) packs each survivor's ``lx``
with its position in ``y`` straight from the probe read, then reads
``ly`` and the row ids at the sorted positions only.  Labels are
built for the call that needs them and never cached on a partition,
so a factor holds only its two CSR arrays, which is what the stores
count.

Column-keyed products
---------------------
A product by one attribute's partition, ``π_X · π_{A}``, is ``π_X``'s
rows grouped by their class in ``π_X`` and their value code of ``A``.
So :meth:`CsrPartition.from_column` keeps a reference to the code
array it grouped (for a relation's column, the relation's own buffer:
no copy) and its code-space width; every other constructor and
disk-store spills leave the partition without one.
:func:`_column_products` keys each row of every such task's left
factor by ``(task, left class, code)`` and groups all of them with
one stable sort.  Codes order as the column's classes do and the left
factor's rows ascend, so the classes come out in the canonical layout,
byte-identical to the probe path, and a code that occurs once gives a
singleton group that is stripped.

Kernel threads
--------------
The products of one pooled-kernel call are independent, and numpy
releases the interpreter lock in the sorts, gathers and compares that
make up their time.  So a call with at least two left factors whose
groups (:func:`_left_factor_tasks`) hold at least ``_THREAD_MIN_ROWS``
right-factor rows each on average runs each group on a module-level
thread pool, each thread with its own probe workspace; other calls,
such as one of many small groups, stay on the calling thread.  The
pool has one thread per CPU in the process's affinity mask, so CPU
affinity is what limits it.  Each task is grouped alone,
on whichever thread, so results are byte-identical either way.  This
pool is the program's only parallelism: the search runs in one
process, as the paper's TANE does.
A forked child of a caller drops the parent's pool
(:func:`_forget_pool`).

Level blocks
------------
A levelwise walk over a relation of at most ``_DENSE_MAX_ROWS`` rows
keeps each level as one :class:`LevelBlock`: the level's sorted masks
(in the level's own dtype, :func:`repro._bitset.mask_dtype`: ``int64``,
or ``object`` past 63 attributes), one ``int16`` label row per mask
(each row of the relation carries its class label, -1 where the
partition strips it), the class counts and the ranks.
:meth:`LevelBlock.products` reads a level's factor rows from lattice
generation's subset matrix and writes the next block — labels
scattered back from the kernel's sorted groups — or only its ranks;
:meth:`LevelBlock.chains` builds a level from the singletons' block
instead (checkpoint restore, the from-singletons ablation).  A block
is stored, spilled and reclaimed as one unit (see
:mod:`repro.partition.store`).  The approximate validity tests hand its
rows, with their class counts and ranks (:meth:`LevelBlock.row`), to
the contingency table of
:mod:`repro.partition.errors` as they are, so no CSR copy of a block is
built or stored.  Nothing converts between the two forms: the
singletons' block is built from the column codes
(:meth:`LevelBlock.from_columns`), every later block from a block, and
a CSR partition only from codes or from CSR partitions.  Taller
relations keep one CSR partition per mask: at 100k rows a label row
would be 200 KB against a few KB of stripped CSR.

:func:`batched_error_counts` runs the pooled kernel, and a rank-only
:meth:`LevelBlock.products` the dense one, but each stops once every
task's rows are grouped: a product's ``e(π) = ||π̂|| - |π̂|`` is
its surviving rows minus their groups, singletons included, so no
result partition is built.  The search uses them for a level whose
partitions are only ever needed for their ranks (Lemma 2).
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import threading
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro import _bitset
from repro.exceptions import DataError, PartitionMissingError
from repro.partition.base import PartitionBase
from repro.partition.errors import LabelRow, contingency, g3_count

__all__ = [
    "INDEX_DTYPE", "LABEL_DTYPE", "CsrPartition", "LevelBlock", "PartitionWorkspace",
    "batched_error_counts", "batched_products", "dense_relation",
]

# The dtype of every index buffer: row ids, offsets, labels, the probe.
INDEX_DTYPE = np.dtype(np.int32)
# The dtype of label rows (see "Level blocks"): a stripped class holds
# at least two rows, so a relation of at most _DENSE_MAX_ROWS rows has
# at most 1,024 classes per partition.
LABEL_DTYPE = np.dtype(np.int16)
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
    """Reusable scratch space for partition products and contingency tables.

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


class CsrPartition(PartitionBase):
    """Stripped partition in CSR layout."""

    __slots__ = (
        "_indices", "_offsets", "_num_rows", "_error_count",
        "_sizes", "_ascending",
        "_column", "_column_width",
    )

    def __init__(self, indices: np.ndarray, offsets: np.ndarray, num_rows: int) -> None:
        """Wrap raw buffers: ``int32`` ones as they are, wider ones
        narrowed once their row ids are checked to lie in
        ``[0, num_rows)``."""
        indices = _index_buffer(indices, num_rows - 1, "row ids")
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
        order, sorted_codes = _stable_sort(codes, counts.size)
        keep = counts[sorted_codes] >= 2
        indices = order[keep].astype(INDEX_DTYPE)
        # The stable sort keeps each class's rows ascending.
        partition = cls._built(indices, _offsets_of(counts[counts >= 2]), num_rows, True)
        # A reference, not a copy: for a relation's column this is the
        # relation's own buffer.
        partition._column, partition._column_width = codes, counts.size
        return partition

    def without_column(self) -> "CsrPartition":
        """``self`` when it carries no column, else a column-free twin
        over the same buffers, whose products take the probe path."""
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
    # Raw buffer export
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

        Built afresh for each caller and never kept: a cached copy would
        double a partition's memory outside every store's byte count.
        """
        return np.repeat(np.arange(self.num_classes, dtype=INDEX_DTYPE), self.class_sizes)

    def _rows_ascending(self) -> bool:
        """Whether rows ascend inside every class (cached).

        True without a pass when the builder guaranteed it; otherwise
        one check over the buffers, e.g. of a partition read back from
        a disk-store spill.
        """
        if self._ascending is None:
            indices = self._indices
            labels = self._labels()
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
        order — and pairs occurring once are stripped.  This is the
        pooled kernel of :func:`batched_products` on one task; a loop
        of many products should batch them instead.
        """
        if not isinstance(other, CsrPartition):
            raise TypeError("CsrPartition can only be multiplied with CsrPartition")
        if other.num_rows != self._num_rows:
            raise DataError("partitions are over different relations")
        return _pooled_products([(self, other)], self._num_rows, workspace, False)[0]

    def g3_error_count(
        self,
        refined: "PartitionBase",
        workspace: PartitionWorkspace | None = None,
    ) -> int:
        """Rows to remove for ``X → A`` to hold, given ``π_{X∪{A}}``:
        :func:`~repro.partition.errors.g3_count` of the two partitions'
        contingency table, whose probe borrows ``workspace``."""
        if not isinstance(refined, CsrPartition):
            raise TypeError("CsrPartition can only be compared with CsrPartition")
        if refined.num_rows != self._num_rows:
            raise DataError("partitions are over different relations")
        return g3_count(contingency(self, refined, workspace))


# ----------------------------------------------------------------------
# Level-batched products
# ----------------------------------------------------------------------


def _inherited_order(right: CsrPartition) -> bool | None:
    """Row order of a product built from the right factor's index order.

    Such a product keeps each class's rows in the right factor's order,
    so it ascends when the right factor does.
    """
    return True if right._ascending else None


# A levelwise walk over a relation of at most this many rows keeps its
# levels as blocks (see "Level blocks"), whose products take the dense
# kernel; CSR products take the pooled kernel at any height, so this
# chooses a storage form, not a kernel.  The dense kernel costs a fixed
# number of numpy passes per chunk over tasks x rows elements, against
# ~15 numpy calls per task on the pooled path: it wins while per-call
# dispatch outweighs the O(rows) work per task.  On CSR inputs captured
# from levelwise runs it was 1.3-2.8x faster up to 2,796 rows and broke
# even at 3,500-5,000 rows (docs/ARCHITECTURE.md has the table).
_DENSE_MAX_ROWS = 2048

# Cap on tasks x rows of one dense chunk of a block product.  The
# chunk's key and mask arrays hold this many elements each, so
# transient memory stays a few MB for any relation under
# _DENSE_MAX_ROWS.
_DENSE_ELEMENT_BUDGET = 1 << 18


# A pooled-kernel call with at least two left-factor groups whose right
# factors hold at least this many stripped rows per group runs the
# groups on the kernel's thread pool.  A group is one thread's work, so
# below this handing groups to threads costs more than the numpy passes
# it overlaps: a dfd walk's few products per call, a level of short
# partitions, or a call of many small groups (EXPERIMENTS.md, "Peak
# memory of an exact walk", has the per-call table).  A call holding
# fewer right-factor rows than this in all takes the column-keyed path.
_THREAD_MIN_ROWS = 1 << 15

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
    """Smallest signed dtype that can hold keys in ``(-keyspace, keyspace)``.

    numpy's value sort runs several keys per vector instruction, so a
    narrower key sorts faster as well as in less memory: the dense
    kernel's sort of a small chunk is a genuine win at 16 bits.
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


def _word_layout(keyspace: int, count: int) -> tuple[np.dtype, int] | None:
    """The unsigned word that packs a key below ``keyspace`` above a
    position below ``count``, as ``(dtype, shift)``: 32 bits where both
    fit, else 64, with the key shifted past the position's bits.  None
    when the two need more than 64 bits."""
    shift = max(count - 1, 0).bit_length()
    width = shift + max(keyspace - 1, 0).bit_length()
    if width <= 32:
        return np.dtype(np.uint32), shift
    if width <= 64:
        return np.dtype(np.uint64), shift
    return None


def _sorted_words(words: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort position-tagged ``words`` in place; return their positions
    (as ``intp``, ready to index with) and keys, in sorted order.

    Tagged words are distinct, so numpy's plain value sort (its SIMD
    sort where the CPU has one) orders them by key and, within a key,
    by position: the order of a stable sort of the keys.
    """
    words.sort()
    positions = np.empty(words.size, dtype=np.intp)
    np.bitwise_and(words, (1 << shift) - 1, out=positions)
    return positions, words >> shift


def _stable_sort(keys: np.ndarray, keyspace: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, keys[order])`` for a stable sort of non-negative
    ``keys`` below ``keyspace``, by one sort of position-tagged words
    (:func:`_word_layout`); keys and positions wider than 64 bits fall
    back to numpy's stable argsort."""
    layout = _word_layout(keyspace, keys.size)
    if layout is None:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    dtype, shift = layout
    words = keys.astype(dtype)
    words <<= shift
    words |= np.arange(keys.size, dtype=dtype)
    return _sorted_words(words, shift)


def _split_groups(
    outputs: Sequence[tuple[int, CsrPartition]],
    sizes: Sequence[int],
    rows: np.ndarray,
    order: np.ndarray,
    sorted_keys: np.ndarray,
    results: list,
    num_rows: int,
    counts: bool,
) -> None:
    """Turn one sort's groups into the results of the tasks laid out in it.

    ``rows`` holds the tasks' rows end to end, ``sizes[t]`` of them for
    task ``t``; ``order`` sorts them task by task into groups, and a
    group runs while ``sorted_keys`` (in sorted order) repeats.  Tasks'
    keys never meet, so no group spans two tasks.
    ``outputs[t]`` is task ``t``'s ``(position, right factor)``.
    ``results[position]`` receives each product, its singleton groups
    stripped, or with ``counts`` its ``e(π)``: rows minus groups, which
    is the repeats.  A batch's results own their buffers.
    """
    # same[i]: sorted row i shares its group with row i + 1.
    same = np.zeros(sorted_keys.size, dtype=bool)
    np.equal(sorted_keys[1:], sorted_keys[:-1], out=same[:-1])
    task_bounds = [0, *itertools.accumulate(sizes)]
    if counts:
        repeats = np.zeros(same.size + 1, dtype=np.int64)
        np.cumsum(same, out=repeats[1:])
        bounds = repeats[task_bounds].tolist()
        for index, (position, _y) in enumerate(outputs):
            results[position] = bounds[index + 1] - bounds[index]
        return
    # A row is kept when it shares its group with either neighbour, and
    # opens a class when it does not share with the one before.
    kept = same.copy()
    kept[1:] |= same[:-1]
    opens = kept.copy()
    opens[1:] &= ~same[:-1]
    positions = np.flatnonzero(kept)
    indices = rows.take(order.take(positions))
    starts = np.flatnonzero(opens.take(positions))
    offsets = np.empty(starts.size + 1, dtype=INDEX_DTYPE)
    offsets[:-1] = starts
    offsets[-1] = positions.size
    # Each task's kept rows and classes, as bounds into ``indices`` and
    # ``offsets``.
    element_bounds = positions.searchsorted(task_bounds).tolist()
    class_bounds = starts.searchsorted(element_bounds).tolist()
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
    order, sorted_keys = _stable_sort(keys, keyspace)
    _split_groups(
        [(position, y) for position, _x, y in live],
        [x._indices.size for _position, x, _y in live],
        np.concatenate([x._indices for _position, x, _y in live]),
        order, sorted_keys, results, num_rows, counts,
    )


def _grouped_rows(
    left: np.ndarray,
    right: np.ndarray,
    left_classes: np.ndarray,
    right_classes: np.ndarray,
    num_rows: int,
    counts: bool,
):
    """The dense kernel: group every task's rows by its two labels.

    Task ``t`` multiplies the partitions whose label rows are
    ``left[t]`` and ``right[t]``, gathered for this call: ``left`` is
    overwritten.  Its key per row is the pair key
    ``label_x * classes_y + label_y`` shifted up one bit, the low bit
    set where either factor stripped the row: rows share a class when
    they share an even key, and an odd key never counts.  Tagged with
    the row id in the bits below, the keys of a task are distinct, so
    one row-wise sort of the ``tasks x rows`` key matrix groups every
    task at once, classes in ``(label_x, label_y)`` order and rows
    ascending inside each.

    With ``counts`` the untagged keys are sorted instead and each
    task's ``e(π)`` (its repeated even keys) is returned.  Otherwise the
    result is ``(rows, kept, opens)``, ``tasks x rows`` matrices over
    each task's sorted rows: the row id at each position (``int32``),
    whether it lies in a class of at least two rows, and whether it
    opens such a class.
    """
    # Every key lies strictly between -span and span: a real pair key
    # below classes_x * classes_y, a stripped one at least
    # -(classes_y + 1) before the shift.
    sentinel = int(max((left_classes * right_classes).max(), right_classes.max()))
    span = 2 * (sentinel + 1)
    shift = max(num_rows - 1, 0).bit_length()
    dtype = _narrowest_key_dtype(span if counts else span << shift)
    keys = left.astype(dtype)
    keys *= right_classes.astype(dtype)[:, None]
    keys += right
    keys <<= 1
    # The flag, in left's own buffer: the sign bit of label_x | label_y,
    # smeared to -1 where either is -1, else 0.
    left |= right
    left >>= 8 * left.itemsize - 1
    keys -= left
    if counts:
        keys.sort(axis=1)
        # A class of k rows repeats its even key k - 1 times: e(π).  In
        # ascending keys, keys[i + 1] == keys[i] & ~1 only where keys[i]
        # is even and repeats.
        return np.count_nonzero(keys[:, 1:] == keys[:, :-1] & -2, axis=1)
    # Tagged with the row id below the flag, the values of a task are
    # distinct, so a plain row-wise sort orders rows by key and, within
    # a key, by row id.
    keys <<= shift
    keys |= np.arange(num_rows, dtype=dtype)
    keys.sort(axis=1)
    sorted_rows = (keys & (1 << shift) - 1).astype(INDEX_DTYPE, copy=False)
    keys >>= shift
    # same[i + 1]: sorted rows i and i + 1 of one task share an even
    # key.  A row survives when it shares with a neighbour, and opens a
    # class when not with the one before.
    flat = keys.reshape(-1)
    same = np.empty(flat.size + 1, dtype=bool)
    np.equal(flat[1:], flat[:-1] & -2, out=same[1:-1])
    same[::num_rows] = False
    kept = same[:-1] | same[1:]
    opens = kept > same[:-1]
    return sorted_rows, kept.reshape(keys.shape), opens.reshape(keys.shape)


def _pooled_products(
    pairs: Sequence[tuple[CsrPartition, CsrPartition]],
    num_rows: int,
    workspace: PartitionWorkspace | None,
    counts: bool,
) -> list:
    """The pooled kernel: every pair's product, over shared probe scatters.

    In a call whose right factors hold fewer than ``_THREAD_MIN_ROWS``
    stripped rows, the tasks whose right factor carries its column and
    whose left factor's rows ascend take the column-keyed path instead
    (:func:`_column_products`; see "Column-keyed products" above).
    The other tasks are taken grouped by left factor (in order of first
    appearance; each result depends only on its own pair), so each
    left factor is scattered once per call (:func:`_left_factor_tasks`).
    A call with several groups and at least ``_THREAD_MIN_ROWS``
    right-factor rows per group runs its groups on the kernel's thread
    pool (see "Kernel threads" above).  With ``counts`` every result is
    the product's ``e(π)`` instead of the partition.
    """
    results: list = [None] * len(pairs)
    positions = range(len(pairs))
    right_rows = sum(y._indices.size for _x, y in pairs)
    if right_rows < _THREAD_MIN_ROWS:
        keyed = []
        probed = []
        for position, (x, y) in enumerate(pairs):
            if y._column is not None and x._rows_ascending():
                keyed.append((position, x, y))
            else:
                probed.append(position)
        if keyed:
            _column_products(keyed, results, num_rows, counts)
        positions = probed
    by_left: dict[int, list[int]] = {}
    for position in positions:
        by_left.setdefault(id(pairs[position][0]), []).append(position)
    groups = list(by_left.values())
    threaded = len(groups) >= 2 and right_rows >= _THREAD_MIN_ROWS * len(groups)
    pool = _kernel_pool() if threaded else None
    if pool is None:
        if groups and workspace is None:
            workspace = PartitionWorkspace(num_rows)
        for group in groups:
            _left_factor_tasks(pairs, group, results, num_rows, workspace, counts)
        return results
    futures = [
        pool.submit(_left_factor_tasks, pairs, group, results, num_rows, None, counts)
        for group in groups
    ]
    # Every group finishes (and resets its probe) before a failure is
    # raised, so no pool thread still works on this call after.
    concurrent.futures.wait(futures)
    for future in futures:
        future.result()
    return results


def _left_factor_tasks(
    pairs: Sequence[tuple[CsrPartition, CsrPartition]],
    positions: Sequence[int],
    results: list,
    num_rows: int,
    workspace: PartitionWorkspace | None,
    counts: bool,
) -> None:
    """Solve the tasks at ``positions``, which share a left factor ``x``.

    ``x`` is scattered into the probe once for all of them; each task's
    surviving rows are gathered from its right factor and grouped by
    :func:`_group_solo`.  Without a ``workspace`` (on a pool thread)
    the thread's own is used.
    """
    x = pairs[positions[0]][0]
    if x._offsets.size == 1:
        # A factor with no stripped classes kills every pair.
        for position in positions:
            results[position] = _no_product(num_rows, counts)
        return
    if workspace is None:
        workspace = _thread_workspace(num_rows)
    probe = workspace.probe
    # The reset must run even when a gather raises (e.g. a corrupt
    # partition with out-of-range row ids): the workspace is
    # shared by the whole run, and a dirty probe silently corrupts every
    # later product.
    try:
        _scatter(probe, x)
        for position in positions:
            y = pairs[position][1]
            if y._offsets.size == 1:
                results[position] = _no_product(num_rows, counts)
                continue
            # ``take``, not ``probe[...]``: it gathers by int32 ids
            # without first widening them to an intp index array.
            in_x = probe.take(y._indices)
            survivors = np.flatnonzero(in_x >= 0)
            if survivors.size:
                _group_solo(position, y, in_x, survivors, x.num_classes, results, num_rows, counts)
            else:
                results[position] = _no_product(num_rows, counts)
    finally:
        _clear(probe, x)


def _scatter(probe: np.ndarray, x: CsrPartition) -> None:
    """Write ``x``'s class labels into ``probe`` at its rows.

    The ids are widened first: numpy scatters by an intp index faster
    than it converts an int32 one on the fly.
    """
    probe[x._indices.astype(np.intp)] = x._labels()


def _clear(probe: np.ndarray, x: CsrPartition) -> None:
    """Reset ``probe`` to -1 after :func:`_scatter` of ``x``: by one
    sequential fill where ``x`` holds a sizeable share of the rows, which
    is an order of magnitude cheaper than that many scattered writes."""
    if x._indices.size * 16 >= probe.size:
        probe.fill(-1)
    else:
        probe[x._indices] = -1


def _group_solo(
    position: int,
    y: CsrPartition,
    in_x: np.ndarray,
    survivors: np.ndarray,
    classes_x: int,
    results: list,
    num_rows: int,
    counts: bool,
) -> None:
    """Group one task's survivors by ``(lx, ly)`` in one sort.

    ``in_x`` is the probe read along ``y``'s rows and ``survivors`` the
    positions in ``y`` where it holds a class of ``x``.  Each survivor's
    ``lx`` is packed above its position into one word, so the sorted
    words give the stable order and the sorted ``lx`` at once (see
    "Left-label grouping" above); only ``ly`` and, for the kept
    classes, the row ids are then read at the sorted positions.  ``ly``
    comes from a label array built for this task alone, so ``y`` keeps
    no cache.  Labels and positions are int32 values, so a word never
    needs more than 62 bits.
    """
    dtype, shift = _word_layout(classes_x, y._indices.size)
    words = in_x.take(survivors).astype(dtype)
    words <<= shift
    # Positions are non-negative and below 2**shift, so neither the
    # unsigned view nor the narrowing cast changes them.
    np.bitwise_or(words, survivors.view(np.uint64), out=words, casting="unsafe")
    order, keys = _sorted_words(words, shift)
    # A survivor shares its group with the previous one when both labels
    # repeat; it is kept when it shares with either neighbour.
    labels = y._labels().take(order)
    same = keys[1:] == keys[:-1]
    same &= labels[1:] == labels[:-1]
    if counts:
        # e(π): survivors minus groups, which is the repeats.
        results[position] = int(np.count_nonzero(same))
        return
    kept = np.zeros(order.size, dtype=bool)
    kept[1:] = same
    kept[:-1] |= same
    opens = kept.copy()
    opens[1:] &= ~same
    rows = order[kept]
    if rows.size == 0:
        results[position] = CsrPartition.empty(num_rows)
        return
    starts = np.flatnonzero(opens[kept])
    offsets = np.empty(starts.size + 1, dtype=INDEX_DTYPE)
    offsets[:-1] = starts
    offsets[-1] = rows.size
    results[position] = CsrPartition._built(
        y._indices.take(rows), offsets, num_rows, _inherited_order(y)
    )


def dense_relation(num_rows: int) -> bool:
    """Whether a levelwise walk over ``num_rows`` rows keeps its levels
    as blocks: at most ``_DENSE_MAX_ROWS`` rows, and at least two (no
    product below that has a stripped class)."""
    return 2 <= num_rows <= _DENSE_MAX_ROWS


def batched_products(
    pairs: Sequence[tuple["CsrPartition", "CsrPartition"]],
    workspace: PartitionWorkspace | None = None,
) -> list["CsrPartition"]:
    """Compute many partition products in a few shared numpy passes.

    Semantically equivalent to ``[x.product(y, workspace) for x, y in
    pairs]`` — byte-identical results in the same order — but cheaper
    on a level's worth of tasks.  Every relation height takes the
    pooled kernel (:func:`_pooled_products`): column-keyed tasks in one
    sort, the rest over probe scatters shared by the tasks of one left
    factor, threaded on a tall call.  Level blocks have their own
    kernel (:meth:`LevelBlock.products`).
    """
    return _batched(pairs, workspace, counts=False)


def batched_error_counts(
    pairs: Sequence[tuple["CsrPartition", "CsrPartition"]],
    workspace: PartitionWorkspace | None = None,
) -> list[int]:
    """``e(x · y)`` for every pair, without building the products.

    Equal to ``[p.error_count for p in batched_products(pairs,
    workspace)]``, through the same kernel, which stops once the
    surviving rows are grouped.
    """
    return _batched(pairs, workspace, counts=True)


def _batched(
    pairs: Sequence[tuple["CsrPartition", "CsrPartition"]],
    workspace: PartitionWorkspace | None,
    *,
    counts: bool,
) -> list:
    """The checks and the pooled-kernel call shared by
    :func:`batched_products` and :func:`batched_error_counts`."""
    if not pairs:
        return []
    num_rows = pairs[0][0].num_rows
    for x, y in pairs:
        if not isinstance(x, CsrPartition) or not isinstance(y, CsrPartition):
            raise TypeError("batched_products requires CsrPartition factors")
        if x.num_rows != num_rows or y.num_rows != num_rows:
            raise DataError("partitions are over different relations")
    return _pooled_products(pairs, num_rows, workspace, counts)


# ----------------------------------------------------------------------
# Level blocks
# ----------------------------------------------------------------------


class LevelBlock:
    """One lattice level's partitions as a single label matrix.

    ``masks`` ascend, in the level's mask dtype
    (:func:`repro._bitset.mask_dtype`: ``int64``, or ``object`` past 63
    attributes); masks looked up or multiplied into the next block take
    that dtype too.  Row ``i`` of ``labels`` is
    ``π_{masks[i]}`` as a label row: each row of the relation carries
    its class label, or -1 where the partition strips it, and labels
    number the classes in the canonical order (see "Level blocks"
    above).  ``classes[i]`` is the partition's stripped class count and
    ``errors[i]`` its ``e(π)``.  A rank-only block (the last level of
    an exact run) holds ``masks`` and ``errors`` alone.

    Blocks are immutable.  The singletons' block comes from the column
    codes (:meth:`from_columns`), every other one from a block:
    :meth:`products` and :meth:`chains` build new ones, and a disk spill
    reloads one.  :meth:`row` reads one partition as a
    :class:`~repro.partition.errors.LabelRow`.
    """

    __slots__ = ("masks", "labels", "classes", "errors", "num_rows")

    def __init__(
        self,
        masks: np.ndarray,
        labels: np.ndarray | None,
        classes: np.ndarray | None,
        errors: np.ndarray,
        num_rows: int,
    ) -> None:
        self.masks = masks
        self.labels = labels
        self.classes = classes
        self.errors = errors
        self.num_rows = num_rows

    @classmethod
    def from_columns(cls, relation) -> "LevelBlock":
        """The singletons' block of ``relation`` (level 1), from its
        column codes.

        A code that occurs once marks its row -1 (a stripped singleton),
        and the repeated codes number their classes in ascending code
        order, which is the class order of :meth:`CsrPartition.from_column`.
        Codes are first densified as there (:func:`_dense_code_space`),
        and the masks take :func:`~repro._bitset.mask_dtype` of the
        schema.
        """
        count, num_rows = relation.num_attributes, relation.num_rows
        masks = np.array(
            [_bitset.bit(i) for i in range(count)], dtype=_bitset.mask_dtype(count)
        )
        labels = np.empty((count, num_rows), dtype=LABEL_DTYPE)
        classes = np.empty(count, dtype=np.int64)
        errors = np.empty(count, dtype=np.int64)
        for attribute in range(count):
            codes = _dense_code_space(
                np.asarray(relation.column_codes(attribute), dtype=np.int64)
            )
            counts = np.bincount(codes)
            repeated = counts >= 2
            # Each code's label: its rank among the repeated codes.
            numbering = np.cumsum(repeated, dtype=LABEL_DTYPE) - 1
            numbering[~repeated] = -1
            labels[attribute] = numbering.take(codes)
            classes[attribute] = np.count_nonzero(repeated)
            errors[attribute] = int(counts[repeated].sum()) - classes[attribute]
        return cls(masks, labels, classes, errors, num_rows)

    def __len__(self) -> int:
        return int(self.masks.size)

    def rows_of(self, masks) -> np.ndarray:
        """The block rows of ``masks``; every one must be in the block."""
        masks = np.asarray(masks, dtype=self.masks.dtype)
        rows = np.searchsorted(self.masks, masks)
        np.minimum(rows, max(self.masks.size - 1, 0), out=rows)
        if self.masks.size == 0 or not np.array_equal(self.masks[rows], masks):
            absent = masks if self.masks.size == 0 else masks[self.masks[rows] != masks]
            raise PartitionMissingError(
                f"no partition stored for mask {int(absent[0]):#x}"
            )
        return rows

    def row(self, mask: int) -> LabelRow:
        """``π_mask`` as the label row the contingency table reads (a
        view into the block: nothing is copied)."""
        # One scalar search: rows_of's array checks would cost about as
        # much as the test this row feeds.
        index = int(self.masks.searchsorted(mask))
        if index == len(self) or self.masks[index] != mask or self.labels is None:
            raise PartitionMissingError(f"no label row stored for mask {mask:#x}")
        return LabelRow(self.labels[index], int(self.classes[index]), int(self.errors[index]))

    def stripped_rows(self) -> int | None:
        """``Σ‖π̂‖`` over the block, or None for a rank-only block."""
        if self.classes is None:
            return None
        return int((self.errors + self.classes).sum())

    def nbytes(self) -> int:
        """Footprint of the block's arrays (used by stores), its masks
        counted as the 64-bit words a spill writes
        (:func:`~repro._bitset.mask_words`)."""
        return 8 * _bitset.mask_words(self.masks) * len(self) + sum(
            array.nbytes
            for array in (self.labels, self.classes, self.errors)
            if array is not None
        )

    def products(
        self,
        candidates: np.ndarray,
        x_rows: np.ndarray,
        y_rows: np.ndarray,
        *,
        ranks_only: bool = False,
    ) -> "LevelBlock":
        """The next level's block: ``π_{candidates[i]}`` is the product
        of this block's rows ``x_rows[i]`` and ``y_rows[i]`` (Lemma 3).

        ``candidates`` must ascend.  Lattice generation gives the rows
        (:attr:`~repro.core.lattice.LevelCandidates.factor_rows`), so no
        mask is looked up.  With ``ranks_only`` only the ranks are
        computed.
        """
        return _block_products(
            np.asarray(candidates, dtype=self.masks.dtype),
            (self.labels, x_rows, self.classes),
            (self.labels, y_rows, self.classes),
            self.num_rows,
            ranks_only,
        )

    def chains(self, candidates: np.ndarray, *, ranks_only: bool = False) -> "LevelBlock":
        """Each candidate's partition as a product chain of this
        block's single-attribute partitions, in ascending attribute
        order: ``ℓ - 1`` products for a set of ``ℓ`` attributes.

        ``self`` is the singletons' block and ``candidates`` ascend,
        all of one size.  The chain builds the same canonical partition
        as the levelwise products, so this serves checkpoint restore
        and the from-singletons ablation alike.
        """
        candidates = np.asarray(candidates, dtype=self.masks.dtype)
        remaining = candidates.copy()
        low = remaining & -remaining
        remaining ^= low
        rows = self.rows_of(low)
        block = LevelBlock(
            candidates, self.labels[rows], self.classes[rows], self.errors[rows], self.num_rows
        )
        steps = np.arange(candidates.size)
        while remaining.any():
            low = remaining & -remaining
            remaining ^= low
            block = _block_products(
                candidates,
                (block.labels, steps, block.classes),
                (self.labels, self.rows_of(low), self.classes),
                self.num_rows,
                ranks_only and not remaining.any(),
            )
        if ranks_only and block.labels is not None:
            block = LevelBlock(candidates, None, None, block.errors, self.num_rows)
        return block


def _block_products(
    candidates: np.ndarray,
    left: tuple[np.ndarray, np.ndarray, np.ndarray],
    right: tuple[np.ndarray, np.ndarray, np.ndarray],
    num_rows: int,
    ranks_only: bool,
) -> LevelBlock:
    """Multiply label rows into the block of ``candidates``.

    ``left`` and ``right`` are ``(labels, rows, classes)``: task ``i``
    multiplies ``labels[rows[i]]`` of each side.  The tasks run through
    :func:`_grouped_rows` in chunks of at most ``_DENSE_ELEMENT_BUDGET``
    elements, and each chunk's classes are scattered back to the rows
    as the new labels, numbered in sorted (canonical) order.  A
    zero-row relation gives a block of empty label rows.
    """
    left_labels, left_rows, left_classes = left
    right_labels, right_rows, right_classes = right
    count = candidates.size
    errors = np.zeros(count, dtype=np.int64)
    labels = classes = None
    if not ranks_only:
        labels = np.full((count, num_rows), -1, dtype=LABEL_DTYPE)
        classes = np.zeros(count, dtype=np.int64)
    if num_rows == 0:
        return LevelBlock(candidates, labels, classes, errors, num_rows)
    step = max(1, _DENSE_ELEMENT_BUDGET // num_rows)
    for start in range(0, count, step):
        stop = min(start + step, count)
        lx = left_rows[start:stop]
        ry = right_rows[start:stop]
        grouped = _grouped_rows(
            left_labels[lx], right_labels[ry], left_classes[lx], right_classes[ry],
            num_rows, ranks_only,
        )
        if ranks_only:
            errors[start:stop] = grouped
            continue
        targets, kept, opens = grouped
        # Positions in the chunk's rows of labels: a chunk holds at most
        # _DENSE_ELEMENT_BUDGET elements, so they fit int32.
        offsets = np.arange(0, (stop - start) * num_rows, num_rows, dtype=INDEX_DTYPE)
        targets += offsets[:, None]
        numbers = np.cumsum(opens, axis=1, dtype=LABEL_DTYPE)
        numbers -= 1
        written = np.flatnonzero(kept)
        labels[start:stop].reshape(-1)[targets.take(written)] = numbers.take(written)
        chunk_classes = np.count_nonzero(opens, axis=1)
        classes[start:stop] = chunk_classes
        errors[start:stop] = np.count_nonzero(kept, axis=1) - chunk_classes
    return LevelBlock(candidates, labels, classes, errors, num_rows)
