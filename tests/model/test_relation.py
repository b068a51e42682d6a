"""Tests for the Relation column store."""

import numpy as np
import pytest

from repro.exceptions import DataError, SchemaError
from repro.model.relation import Relation, _encode_column


class TestFromRows:
    def test_basic(self):
        rel = Relation.from_rows([[1, "x"], [2, "x"], [1, "y"]], ["A", "B"])
        assert rel.num_rows == 3
        assert rel.num_attributes == 2
        assert len(rel) == 3

    def test_autonames(self):
        rel = Relation.from_rows([[1, 2, 3]])
        assert rel.schema.attribute_names == ("col0", "col1", "col2")

    def test_codes_reflect_equality(self):
        rel = Relation.from_rows([[5], [7], [5], [5]], ["A"])
        codes = rel.column_codes(0)
        assert codes[0] == codes[2] == codes[3]
        assert codes[0] != codes[1]

    def test_codes_first_appearance_order(self):
        rel = Relation.from_rows([["b"], ["a"], ["b"]], ["A"])
        assert list(rel.column_codes(0)) == [0, 1, 0]

    def test_encoding_matches_the_per_value_loop(self):
        def reference(values):
            table, decode, codes = {}, [], []
            for value in values:
                if value not in table:
                    table[value] = len(decode)
                    decode.append(value)
                codes.append(table[value])
            return codes, decode

        nan, other_nan = float("nan"), float("nan")
        values = ["b", 1, True, 1.0, None, "", nan, other_nan, nan, (1, 2), "b", 0, False]
        codes, decode = _encode_column(values)
        expected_codes, expected_decode = reference(values)
        assert codes.dtype == np.int64
        assert codes.tolist() == expected_codes
        assert len(decode) == len(expected_decode)
        assert all(a is b for a, b in zip(decode, expected_decode))

    def test_rows_of_any_iterable(self):
        rows = [[1, "x"], (2, "x"), iter([1, "y"]), np.array([3, 4])]
        rel = Relation.from_rows(rows[:3], ["A", "B"])
        assert rel.to_rows() == [(1, "x"), (2, "x"), (1, "y")]
        assert Relation.from_rows([rows[3]]).num_attributes == 2

    def test_ragged_rejected(self):
        with pytest.raises(DataError, match="row 1"):
            Relation.from_rows([[1, 2], [1]], ["A", "B"])

    def test_ragged_message_names_the_first_ragged_row(self):
        rows = [[1, 2], [3, 4], [5, 6, 7], [8]]
        with pytest.raises(DataError) as raised:
            Relation.from_rows(rows, ["A", "B"])
        assert str(raised.value) == "row 2 has 3 values, expected 2"

    def test_empty_needs_names(self):
        with pytest.raises(DataError):
            Relation.from_rows([])

    def test_empty_with_names(self):
        rel = Relation.from_rows([], ["A", "B"])
        assert rel.num_rows == 0
        assert rel.num_attributes == 2

    def test_name_count_mismatch(self):
        with pytest.raises(SchemaError):
            Relation.from_rows([[1, 2]], ["A"])

    def test_mixed_types_distinct(self):
        # 1 and "1" are different values.
        rel = Relation.from_rows([[1], ["1"]], ["A"])
        assert rel.distinct_count(0) == 2


class TestFromColumns:
    def test_basic(self):
        rel = Relation.from_columns({"A": [1, 1, 2], "B": ["x", "y", "x"]})
        assert rel.num_rows == 3
        assert rel.column_values("A") == [1, 1, 2]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            Relation.from_columns({})


class TestFromCodes:
    def test_basic(self):
        rel = Relation.from_codes([np.array([0, 1, 0]), np.array([2, 2, 2])])
        assert rel.num_rows == 3
        assert rel.value(0, 1) == 2

    def test_float_rejected(self):
        with pytest.raises(DataError):
            Relation.from_codes([np.array([0.5, 1.0])])

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            Relation.from_codes([np.array([-1, 0])])

    def test_2d_rejected(self):
        with pytest.raises(DataError):
            Relation.from_codes([np.zeros((2, 2), dtype=np.int64)])


class TestAccess:
    @pytest.fixture
    def rel(self):
        return Relation.from_rows(
            [[1, "a", True], [2, "b", False], [1, "a", False]], ["num", "str", "flag"]
        )

    def test_value(self, rel):
        assert rel.value(0, "str") == "a"
        assert rel.value(1, 0) == 2

    def test_row(self, rel):
        assert rel.row(1) == (2, "b", False)

    def test_iter_rows(self, rel):
        assert list(rel.iter_rows())[2] == (1, "a", False)

    def test_to_rows(self, rel):
        assert len(rel.to_rows()) == 3

    def test_column_values(self, rel):
        assert rel.column_values("flag") == [True, False, False]

    def test_distinct_count(self, rel):
        assert rel.distinct_count("num") == 2
        assert rel.distinct_count("flag") == 2

    def test_bad_index(self, rel):
        with pytest.raises(SchemaError):
            rel.column_codes(7)

    def test_bad_name(self, rel):
        with pytest.raises(SchemaError):
            rel.column_codes("nope")


class TestTransforms:
    @pytest.fixture
    def rel(self):
        return Relation.from_rows([[i, i % 2, "x"] for i in range(6)], ["A", "B", "C"])

    def test_project(self, rel):
        projected = rel.project(["C", "A"])
        assert projected.schema.attribute_names == ("C", "A")
        assert projected.num_rows == 6
        assert projected.value(3, "A") == 3

    def test_project_empty_rejected(self, rel):
        with pytest.raises(SchemaError):
            rel.project([])

    def test_take(self, rel):
        taken = rel.take([5, 0, 0])
        assert taken.num_rows == 3
        assert taken.value(0, "A") == 5
        assert taken.value(1, "A") == taken.value(2, "A") == 0

    def test_head(self, rel):
        assert rel.head(2).num_rows == 2
        assert rel.head(100).num_rows == 6

    def test_rename(self, rel):
        renamed = rel.rename({"A": "id"})
        assert renamed.schema.attribute_names == ("id", "B", "C")
        assert renamed.value(1, "id") == 1

    def test_equality(self, rel):
        same = Relation.from_rows(rel.to_rows(), rel.schema.attribute_names)
        assert rel == same
        assert rel != rel.head(3)
        assert rel != "not a relation"

    def test_repr(self, rel):
        assert "6 rows" in repr(rel)
