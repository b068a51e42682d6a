"""Tests for CSV reading/writing."""

import pytest

from repro.datasets.csvio import read_csv, write_csv
from repro.exceptions import DataError
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
