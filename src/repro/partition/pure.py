"""Reference stripped-partition engine: the paper's algorithms, verbatim.

This module transcribes the probe-table procedures of the extended
version of the paper (``STRIPPED_PRODUCT`` and the ``g3`` error
computation sketched in Section 2) into plain Python.  It favours
readability over speed and serves as the oracle that the vectorized
engine is tested against.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.exceptions import DataError
from repro.partition.base import PartitionBase

__all__ = ["PurePartition"]


class PurePartition(PartitionBase):
    """Stripped partition stored as a list of lists of row indices."""

    __slots__ = ("_classes", "_num_rows", "_stripped_size")

    def __init__(self, classes: Iterable[Sequence[int]], num_rows: int) -> None:
        stripped = [sorted(c) for c in classes if len(c) >= 2]
        total = sum(len(c) for c in stripped)
        seen = {row for c in stripped for row in c}
        if len(seen) != total:
            raise DataError("partition classes overlap")
        if seen and (min(seen) < 0 or max(seen) >= num_rows):
            raise DataError("row index out of range for partition")
        self._classes = stripped
        self._num_rows = num_rows
        self._stripped_size = total

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_column(cls, codes: Sequence[int], num_rows: int | None = None) -> "PurePartition":
        """Build ``π_{{A}}`` from a column of value codes.

        Rows with equal codes form one equivalence class; singleton
        classes are stripped.
        """
        if num_rows is None:
            num_rows = len(codes)
        if len(codes) != num_rows:
            raise DataError(f"column has {len(codes)} codes for {num_rows} rows")
        groups: dict[int, list[int]] = {}
        for row, code in enumerate(codes):
            groups.setdefault(int(code), []).append(row)
        return cls(groups.values(), num_rows)

    @classmethod
    def single_class(cls, num_rows: int) -> "PurePartition":
        """The partition ``π_∅`` with one class containing every row."""
        return cls([list(range(num_rows))], num_rows)

    # ------------------------------------------------------------------
    # PartitionBase primitives
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def stripped_size(self) -> int:
        return self._stripped_size

    @property
    def num_classes(self) -> int:
        return len(self._classes)

    def classes(self) -> Iterator[tuple[int, ...]]:
        for c in self._classes:
            yield tuple(c)

    def product(self, other: "PartitionBase", workspace=None) -> "PurePartition":
        """``STRIPPED_PRODUCT`` from the extended version of the paper.

        A probe table ``T`` maps each row covered by a class of
        ``self`` to that class's index.  Scanning each class of
        ``other``, rows landing in the same ``self`` class are gathered
        into buckets ``S[i]``; buckets of size >= 2 become classes of
        the product.  The table is reset between classes so the whole
        procedure is ``O(||π̂'|| + ||π̂''||)``.

        ``workspace`` is accepted (and ignored) for signature
        compatibility with :class:`~repro.partition.vectorized.CsrPartition`,
        so the TANE driver can run either engine through the same
        execution backend (``TaneConfig(engine="pure")``).
        """
        if not isinstance(other, PurePartition):
            raise TypeError("PurePartition can only be multiplied with PurePartition")
        if other.num_rows != self._num_rows:
            raise DataError("partitions are over different relations")
        table: dict[int, int] = {}
        buckets: list[list[int]] = [[] for _ in self._classes]
        for index, cls_rows in enumerate(self._classes):
            for row in cls_rows:
                table[row] = index
        result: list[list[int]] = []
        for cls_rows in other._classes:
            touched: list[int] = []
            for row in cls_rows:
                index = table.get(row)
                if index is not None:
                    if not buckets[index]:
                        touched.append(index)
                    buckets[index].append(row)
            for index in touched:
                if len(buckets[index]) >= 2:
                    result.append(buckets[index])
                buckets[index] = []
        return PurePartition(result, self._num_rows)

    def g3_error_count(self, refined: "PartitionBase", workspace=None) -> int:
        """Number of rows to remove for the tested dependency to hold.

        ``self`` is ``π_X`` and ``refined`` is ``π_{X∪{A}}``.  For each
        class ``c`` of ``π_X``, all rows except those of its largest
        sub-class in ``π_{X∪{A}}`` must go (Section 2 of the paper);
        sub-classes stripped from ``refined`` are singletons, hence the
        default size 1.  ``workspace`` is accepted (and ignored) for
        signature compatibility with the vectorized engine.
        """
        if not isinstance(refined, PurePartition):
            raise TypeError("PurePartition can only be compared with PurePartition")
        if refined.num_rows != self._num_rows:
            raise DataError("partitions are over different relations")
        # Map one representative row of each refined class to its size.
        representative_size: dict[int, int] = {}
        for cls_rows in refined._classes:
            representative_size[cls_rows[0]] = len(cls_rows)
        removed = 0
        for cls_rows in self._classes:
            largest = 1
            for row in cls_rows:
                size = representative_size.get(row)
                if size is not None and size > largest:
                    largest = size
            removed += len(cls_rows) - largest
        return removed

    def nbytes(self) -> int:
        """Approximate payload size (8 bytes per stored row id), for the
        partition stores' resident-byte accounting."""
        return 8 * self.stripped_size

    # ------------------------------------------------------------------
    # Extras used by tests
    # ------------------------------------------------------------------

    def refines(self, other: "PurePartition") -> bool:
        """Literal refinement test (Lemma 1): every class of ``self``
        is contained in some class of ``other``.

        Operates on the *unstripped* partitions: a stripped (singleton)
        class trivially refines anything.
        """
        row_to_class: dict[int, int] = {}
        for index, cls_rows in enumerate(other._classes):
            for row in cls_rows:
                row_to_class[row] = index
        for cls_rows in self._classes:
            first = row_to_class.get(cls_rows[0], -1 - cls_rows[0])
            for row in cls_rows[1:]:
                if row_to_class.get(row, -1 - row) != first:
                    return False
        return True
