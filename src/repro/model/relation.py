"""Column-oriented relation instances with dictionary-encoded values.

The dependency-discovery algorithms never look at raw values; they only
need to know *which rows agree* on each attribute.  A :class:`Relation`
therefore stores every column as an array of small integer *codes* plus
a decode table, computed once at construction.  Building the
single-attribute partitions ``π_{{A}}`` from the codes is then a single
grouping pass per column.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.exceptions import DataError, SchemaError
from repro.model.schema import RelationSchema

__all__ = ["Relation"]

_CODE_DTYPE = np.int64


def _encode_column(values: Sequence[Any]) -> tuple[np.ndarray, list[Any]]:
    """Dictionary-encode a column: return (codes, decode_table).

    Codes are assigned in order of first appearance, so encoding is
    deterministic for a given row order.  Both passes iterate in C:
    ``dict.fromkeys`` keeps each value's first occurrence, in order.
    """
    table: dict[Any, int] = dict.fromkeys(values)
    decode = list(table)
    table.update(zip(decode, range(len(decode))))
    codes = np.fromiter(map(table.__getitem__, values), dtype=_CODE_DTYPE, count=len(values))
    return codes, decode


def _schema_of_width(attribute_names: Sequence[str] | None, width: int) -> RelationSchema:
    """The schema of rows ``width`` values wide: ``attribute_names``, or
    ``col0, col1, ...`` when omitted."""
    if attribute_names is None:
        attribute_names = [f"col{i}" for i in range(width)]
    schema = RelationSchema(attribute_names)
    if len(schema) != width:
        raise SchemaError(f"{len(schema)} attribute names supplied for rows of width {width}")
    return schema


class Relation:
    """An immutable relation instance (a table of rows).

    Construct via :meth:`from_rows`, :meth:`from_columns`,
    :meth:`from_csv`, or :meth:`from_codes`.

    Examples
    --------
    >>> rel = Relation.from_rows([[1, "a"], [1, "b"], [2, "a"]], ["A", "B"])
    >>> rel.num_rows, rel.num_attributes
    (3, 2)
    >>> list(rel.column_codes(0))
    [0, 0, 1]
    """

    __slots__ = ("_schema", "_codes", "_decode", "_num_rows", "_fingerprint")

    def __init__(
        self,
        schema: RelationSchema,
        codes: list[np.ndarray],
        decode: list[list[Any]],
    ) -> None:
        if len(codes) != len(schema) or len(decode) != len(schema):
            raise SchemaError(
                f"schema has {len(schema)} attributes but {len(codes)} code "
                f"columns and {len(decode)} decode tables were supplied"
            )
        lengths = {len(column) for column in codes}
        if len(lengths) > 1:
            raise DataError(f"columns have differing lengths: {sorted(lengths)}")
        self._schema = schema
        self._codes = codes
        self._decode = decode
        self._num_rows = len(codes[0]) if codes else 0
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[Any]],
        attribute_names: Sequence[str] | None = None,
    ) -> "Relation":
        """Build a relation from an iterable of equal-length rows.

        If ``attribute_names`` is omitted, attributes are named
        ``col0, col1, ...``.
        """
        # Lists and tuples are read in place; only other iterables
        # (generators, arrays) are copied.
        materialized = [row if isinstance(row, (list, tuple)) else list(row) for row in rows]
        if not materialized:
            if attribute_names is None:
                raise DataError("cannot infer a schema from zero rows; pass attribute_names")
            schema = RelationSchema(attribute_names)
            empty = [np.empty(0, dtype=_CODE_DTYPE) for _ in schema]
            return cls(schema, empty, [[] for _ in schema])
        width = len(materialized[0])
        if len(set(map(len, materialized))) > 1:
            for position, row in enumerate(materialized):
                if len(row) != width:
                    raise DataError(f"row {position} has {len(row)} values, expected {width}")
        schema = _schema_of_width(attribute_names, width)
        codes: list[np.ndarray] = []
        decode: list[list[Any]] = []
        for column_index in range(width):
            column_codes, column_decode = _encode_column(
                [row[column_index] for row in materialized]
            )
            codes.append(column_codes)
            decode.append(column_decode)
        return cls(schema, codes, decode)

    @classmethod
    def from_columns(cls, columns: Mapping[str, Sequence[Any]]) -> "Relation":
        """Build a relation from a mapping of attribute name -> values."""
        if not columns:
            raise DataError("cannot build a relation from zero columns")
        schema = RelationSchema(columns.keys())
        codes: list[np.ndarray] = []
        decode: list[list[Any]] = []
        for name in schema:
            column_codes, column_decode = _encode_column(list(columns[name]))
            codes.append(column_codes)
            decode.append(column_decode)
        return cls(schema, codes, decode)

    @classmethod
    def from_csv(cls, path, **options) -> "Relation":
        """Load a relation from a CSV file.

        Convenience alias for :func:`repro.datasets.csvio.read_csv`;
        see there for the keyword options (``header``, ``delimiter``,
        ``attribute_names``).
        """
        from repro.datasets.csvio import read_csv

        return read_csv(path, **options)

    @classmethod
    def from_codes(
        cls,
        code_columns: Sequence[np.ndarray],
        attribute_names: Sequence[str] | None = None,
    ) -> "Relation":
        """Build a relation directly from pre-encoded integer columns.

        The decode table of each column maps every code to itself.  This
        is the fast path used by synthetic dataset generators.
        """
        if not code_columns:
            raise DataError("cannot build a relation from zero columns")
        if attribute_names is None:
            attribute_names = [f"col{i}" for i in range(len(code_columns))]
        schema = RelationSchema(attribute_names)
        codes: list[np.ndarray] = []
        decode: list[list[Any]] = []
        for column in code_columns:
            array = np.asarray(column)
            if array.ndim != 1:
                raise DataError("code columns must be one-dimensional")
            if not np.issubdtype(array.dtype, np.integer):
                raise DataError(f"code columns must be integer arrays, got dtype {array.dtype}")
            array = array.astype(_CODE_DTYPE, copy=False)
            if array.size and array.min() < 0:
                raise DataError("codes must be non-negative")
            if array.size and int(array.max()) > 2 * array.size + 1024:
                # Sparse code space: re-encode densely so downstream
                # bincounts and decode tables stay O(rows); the decode
                # table maps the dense codes back to the given values.
                values, dense = np.unique(array, return_inverse=True)
                codes.append(dense.astype(_CODE_DTYPE, copy=False))
                decode.append([int(v) for v in values])
                continue
            codes.append(array)
            decode.append(list(range(int(array.max()) + 1)) if array.size else [])
        return cls(schema, codes, decode)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        """The relation's schema."""
        return self._schema

    @property
    def num_rows(self) -> int:
        """Number of rows (``|r|`` in the paper)."""
        return self._num_rows

    @property
    def num_attributes(self) -> int:
        """Number of attributes (``|R|`` in the paper)."""
        return len(self._schema)

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:
        return f"<Relation {self._num_rows} rows x {self.num_attributes} attributes {list(self._schema)!r}>"

    def __eq__(self, other: object) -> bool:
        """Value equality: same schema and the same rows in the same order."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self._schema != other._schema or self._num_rows != other._num_rows:
            return False
        return all(
            self.column_values(i) == other.column_values(i) for i in range(self.num_attributes)
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def column_codes(self, attribute: int | str) -> np.ndarray:
        """Return the integer code array of a column.

        Two rows agree on the attribute iff their codes are equal.  The
        returned array is the internal buffer; callers must not mutate
        it.
        """
        return self._codes[self._column_index(attribute)]

    def column_values(self, attribute: int | str) -> list[Any]:
        """Return the decoded values of a column as a list."""
        index = self._column_index(attribute)
        decode = self._decode[index]
        return [decode[code] for code in self._codes[index]]

    def value(self, row: int, attribute: int | str) -> Any:
        """Return the decoded value at (row, attribute)."""
        index = self._column_index(attribute)
        return self._decode[index][self._codes[index][row]]

    def row(self, row: int) -> tuple[Any, ...]:
        """Return one decoded row as a tuple."""
        return tuple(self.value(row, i) for i in range(self.num_attributes))

    def iter_rows(self) -> Iterable[tuple[Any, ...]]:
        """Yield all rows as decoded tuples."""
        for row in range(self._num_rows):
            yield self.row(row)

    def distinct_count(self, attribute: int | str) -> int:
        """Number of distinct values in a column."""
        return len(self._decode[self._column_index(attribute)])

    def fingerprint(self) -> str:
        """Content hash of the relation's partition-relevant identity.

        Discovery depends only on *which rows agree* per attribute —
        the code arrays — so the hash covers row count, column count,
        and each column's codes in schema order; attribute names and
        decoded values are deliberately excluded (relations differing
        only there have identical partitions).  Computed once and
        cached; :func:`repro.fingerprint.dataset_fingerprint` folds
        it into a registered dataset's identity.
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha1()
            digest.update(f"{self._num_rows}:{len(self._codes)}".encode())
            for column in self._codes:
                digest.update(np.ascontiguousarray(column, dtype=_CODE_DTYPE).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def _column_index(self, attribute: int | str) -> int:
        if isinstance(attribute, str):
            return self._schema.index_of(attribute)
        if not 0 <= attribute < self.num_attributes:
            raise SchemaError(f"attribute index {attribute} out of range for {self.num_attributes} attributes")
        return attribute

    # ------------------------------------------------------------------
    # Transformations (all return new relations)
    # ------------------------------------------------------------------

    def project(self, attributes: Sequence[int | str]) -> "Relation":
        """Return a relation with only the given attributes (duplicates of
        rows are *not* removed: projection here is column selection)."""
        indices = [self._column_index(a) for a in attributes]
        if not indices:
            raise SchemaError("projection needs at least one attribute")
        schema = RelationSchema([self._schema[i] for i in indices])
        return Relation(
            schema,
            [self._codes[i] for i in indices],
            [self._decode[i] for i in indices],
        )

    def take(self, row_indices: Sequence[int] | np.ndarray) -> "Relation":
        """Return a relation consisting of the given rows, in order."""
        selector = np.asarray(row_indices, dtype=np.int64)
        codes = [column[selector] for column in self._codes]
        return Relation(self._schema, codes, self._decode)

    def head(self, n: int) -> "Relation":
        """Return the first ``n`` rows."""
        return self.take(np.arange(min(n, self._num_rows)))

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Return a relation with attributes renamed per ``mapping``."""
        names = [mapping.get(name, name) for name in self._schema]
        return Relation(RelationSchema(names), self._codes, self._decode)

    def to_rows(self) -> list[tuple[Any, ...]]:
        """Materialize all rows as decoded tuples."""
        return list(self.iter_rows())
