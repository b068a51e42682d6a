"""Tests for the FDEP baseline (Savnik & Flach)."""

from repro import _bitset
from repro.baselines.bruteforce import dependency_holds
from repro.baselines.fdep import agree_sets, discover_fds_fdep, negative_cover
from repro.model.relation import Relation


class TestAgreeSets:
    def test_simple(self):
        rel = Relation.from_rows([[1, "x"], [1, "y"], [2, "x"]], ["A", "B"])
        # pairs: (0,1) agree on A -> 0b01; (0,2) agree on B -> 0b10;
        # (1,2) agree on nothing -> 0b00
        assert agree_sets(rel) == {0b01, 0b10, 0b00}

    def test_duplicates_ignored(self):
        rel = Relation.from_rows([[1, 2], [1, 2], [3, 4]], ["A", "B"])
        assert agree_sets(rel) == {0}

    def test_single_row(self):
        rel = Relation.from_rows([[1, 2]], ["A", "B"])
        assert agree_sets(rel) == set()

    def test_padded_relation_shifts_agree_sets(self):
        # 62 leading constant columns put the varying ones at bits 62-64,
        # across the int64 limit: every agree set is the narrow one
        # shifted left by 62, with the 62 constant bits set.
        rows = [[i % 2, (i * 3) % 5, i % 3] for i in range(12)]
        narrow = Relation.from_rows(rows)
        padded = Relation.from_rows([[0] * 62 + row for row in rows])
        constant = _bitset.mask_of_size(62)
        assert agree_sets(padded) == {
            mask << 62 | constant for mask in agree_sets(narrow)
        }
        assert len(agree_sets(narrow)) > 1


class TestNegativeCover:
    def test_cover_witnesses_invalidity(self, figure1_relation):
        cover = negative_cover(figure1_relation)
        for rhs, max_sets in cover.items():
            for invalid in max_sets:
                assert not dependency_holds(figure1_relation, invalid, rhs)

    def test_cover_is_maximal(self, figure1_relation):
        """Adding any attribute to a cover member makes it valid or non-sensical."""
        num_attributes = figure1_relation.num_attributes
        cover = negative_cover(figure1_relation)
        for rhs, max_sets in cover.items():
            for invalid in max_sets:
                for attribute in range(num_attributes):
                    bit = _bitset.bit(attribute)
                    if invalid & bit or attribute == rhs:
                        continue
                    bigger = invalid | bit
                    # bigger must not be invalid-and-observed-maximal:
                    # either the dependency holds, or bigger is not an
                    # agree set at all; in both cases it is not in the cover.
                    assert bigger not in max_sets

    def test_cover_is_antichain(self, figure1_relation):
        for max_sets in negative_cover(figure1_relation).values():
            for i, a in enumerate(max_sets):
                for b in max_sets[i + 1:]:
                    assert not _bitset.is_subset(a, b)
                    assert not _bitset.is_subset(b, a)


class TestDiscovery:
    def test_figure1(self, figure1_relation):
        result = discover_fds_fdep(figure1_relation)
        found = {fd.format(figure1_relation.schema) for fd in result}
        assert found == {
            "A,C -> B", "A,D -> B", "A,D -> C",
            "B,C -> A", "B,D -> A", "B,D -> C",
        }

    def test_empty_relation(self):
        rel = Relation.from_rows([], ["A", "B"])
        result = discover_fds_fdep(rel)
        assert {(fd.lhs, fd.rhs) for fd in result} == {(0, 0), (0, 1)}

    def test_single_row(self):
        rel = Relation.from_rows([[1, 2]], ["A", "B"])
        result = discover_fds_fdep(rel)
        assert {(fd.lhs, fd.rhs) for fd in result} == {(0, 0), (0, 1)}

    def test_constant_column(self):
        rel = Relation.from_rows([[1, "x"], [2, "x"], [3, "x"]], ["id", "c"])
        result = discover_fds_fdep(rel)
        formats = {fd.format(rel.schema) for fd in result}
        assert "{} -> c" in formats
        assert "id -> c" not in formats  # not minimal

    def test_lhs_limit_drops_large(self, figure1_relation):
        assert len(discover_fds_fdep(figure1_relation, max_lhs_size=1)) == 0
        assert len(discover_fds_fdep(figure1_relation, max_lhs_size=2)) == 6

    def test_wide_relation_python_path(self):
        """More than 63 attributes exercises the agree sets as Python ints
        in an object array."""
        num_attributes = 65
        rows = [[r] + [0] * (num_attributes - 1) for r in range(3)]
        rel = Relation.from_rows(rows)
        result = discover_fds_fdep(rel, max_lhs_size=1)
        formats = {fd.format(rel.schema) for fd in result}
        assert "{} -> col64" in formats
