"""Tests for CSV reading/writing."""

import csv
import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import csvio
from repro.datasets.csvio import read_csv, read_csv_text, write_csv
from repro.exceptions import DataError
from repro.fingerprint import dataset_fingerprint
from repro.model.relation import Relation


class TestReadCsv:
    def test_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,x\n2,y\n1,x\n")
        rel = read_csv(path)
        assert rel.schema.attribute_names == ("a", "b")
        assert rel.num_rows == 3
        assert rel.value(1, "b") == "y"

    def test_without_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,x\n2,y\n")
        rel = read_csv(path, header=False)
        assert rel.schema.attribute_names == ("col0", "col1")
        assert rel.num_rows == 2

    def test_explicit_names_skip_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,x\n")
        rel = read_csv(path, attribute_names=["x", "y"])
        assert rel.schema.attribute_names == ("x", "y")
        assert rel.num_rows == 1

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("a;b\n1;2\n")
        rel = read_csv(path, delimiter=";")
        assert rel.num_attributes == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError):
            read_csv(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="fields"):
            read_csv(path)

    def test_ragged_message_names_the_first_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6,7\n8\n")
        with pytest.raises(DataError) as raised:
            read_csv(path)
        assert str(raised.value) == f"{path}: row 3 has 3 fields, expected 2"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("a,b\n1,2\n\n3,4\n")
        assert read_csv(path).num_rows == 2

    def test_values_stay_strings(self, tmp_path):
        path = tmp_path / "types.csv"
        path.write_text("a\n01\n1\n")
        rel = read_csv(path)
        assert rel.distinct_count("a") == 2  # "01" != "1"


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        rel = Relation.from_rows(
            [["x", "1"], ["y", "2"], ["x", "1"]], ["name", "value"]
        )
        path = tmp_path / "out.csv"
        write_csv(rel, path)
        again = read_csv(path)
        assert again == rel

    def test_write_without_header(self, tmp_path):
        rel = Relation.from_rows([["a", "b"]], ["c1", "c2"])
        path = tmp_path / "no_header.csv"
        write_csv(rel, path, header=False)
        assert path.read_text().strip() == "a,b"

    def test_quoted_values_roundtrip(self, tmp_path):
        rel = Relation.from_rows([["hello, world", 'say "hi"'], ["a\nb", "c"]], ["x", "y"])
        path = tmp_path / "quoted.csv"
        write_csv(rel, path)
        again = read_csv(path)
        assert again.value(0, "x") == "hello, world"
        assert again.value(0, "y") == 'say "hi"'


# Cells hold the delimiter, quotes, newlines and empty strings, so
# csv.writer quotes them and a cell may span lines.
_CELLS = st.text(alphabet='ab,"\n 1', max_size=4)


@st.composite
def _tables(draw):
    """Equal-width rows (header first) and where blank lines go."""
    width = draw(st.integers(1, 4))
    rows = draw(
        st.lists(st.lists(_CELLS, min_size=width, max_size=width), min_size=1, max_size=12)
    )
    # Header names must be valid and distinct; data cells may be anything.
    rows[0] = [f"h{index}" for index in range(width)]
    blanks = draw(st.lists(st.integers(0, len(rows)), max_size=3))
    return rows, blanks


def _csv_text(rows, blanks=()):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for position, row in enumerate(rows):
        for _ in range(list(blanks).count(position)):
            writer.writerow([])
        writer.writerow(row)
    for _ in range(list(blanks).count(len(rows))):
        writer.writerow([])
    return buffer.getvalue()


def _reference(text, header, attribute_names):
    """Every row parsed first, then encoded in one ``from_rows`` call."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    names = attribute_names
    if header:
        first, *rows = rows
        names = first if names is None else names
    return Relation.from_rows(rows, names)


def _assert_same_relation(actual, expected):
    assert actual.schema == expected.schema
    assert actual.num_rows == expected.num_rows
    for index in range(expected.num_attributes):
        codes = actual.column_codes(index)
        assert codes.dtype == expected.column_codes(index).dtype
        assert codes.tobytes() == expected.column_codes(index).tobytes()
        assert actual._decode[index] == expected._decode[index]
    assert dataset_fingerprint(actual) == dataset_fingerprint(expected)


def _both_reads(text, path, **options):
    """``read_csv_text`` and ``read_csv`` of ``text``; each result is a
    relation or the ``DataError`` message the read raised."""
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    for read, source in ((read_csv_text, dict(source=str(path))), (read_csv, {})):
        try:
            outcomes.append(read(text if read is read_csv_text else path, **source, **options))
        except DataError as error:
            outcomes.append(str(error))
    return outcomes


# tmp_path is shared by a test's examples: each example rewrites the file.
_EXAMPLES = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestChunkedIngest:
    """Reads encode a chunk of rows at a time; the relation must be the
    one of parsing every row first, whatever the chunk boundaries."""

    @_EXAMPLES
    @given(
        table=_tables(),
        chunk_rows=st.sampled_from([1, 2, 3]),
        header=st.booleans(),
        named=st.booleans(),
    )
    def test_same_relation_as_parsing_every_row_first(
        self, tmp_path, table, chunk_rows, header, named
    ):
        rows, blanks = table
        width = len(rows[0])
        names = [f"n{index}" for index in range(width)] if named else None
        text = _csv_text(rows, blanks)
        if header and len(rows) == 1:
            expected = f"{tmp_path / 'data.csv'} contains a header but no data rows"
        else:
            expected = _reference(text, header, names)
        with mock.patch.object(csvio, "_CHUNK_ROWS", chunk_rows):
            outcomes = _both_reads(
                text, tmp_path / "data.csv", header=header, attribute_names=names
            )
        for outcome in outcomes:
            if isinstance(expected, str):
                assert outcome == expected
            else:
                _assert_same_relation(outcome, expected)

    @_EXAMPLES
    @given(
        table=_tables(),
        chunk_rows=st.sampled_from([1, 2, 3]),
        data=st.data(),
    )
    def test_width_error_names_the_same_row_in_any_chunk(
        self, tmp_path, table, chunk_rows, data
    ):
        rows, blanks = table
        width = len(rows[0])
        rows = rows + [["x"] * width] * 2
        ragged = data.draw(st.integers(2, len(rows) - 1))
        rows[ragged] = ["y"] * data.draw(st.sampled_from([w for w in range(1, 6) if w != width]))
        path = tmp_path / "data.csv"
        with mock.patch.object(csvio, "_CHUNK_ROWS", chunk_rows):
            outcomes = _both_reads(_csv_text(rows, blanks), path)
        # Row numbers count data rows: the header and blank lines are not rows.
        message = f"{path}: row {ragged} has {len(rows[ragged])} fields, expected {width}"
        assert outcomes == [message, message]

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_input(self, tmp_path, text):
        for header in (True, False):
            path = tmp_path / "data.csv"
            assert _both_reads(text, path, header=header) == [f"{path} contains no rows"] * 2

    def test_header_only(self, tmp_path):
        path = tmp_path / "data.csv"
        message = f"{path} contains a header but no data rows"
        assert _both_reads("a,b\n\n", path) == [message, message]
