"""Tests for the vectorized CSR partition engine."""

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.partition.vectorized import CsrPartition, PartitionWorkspace

FIG1_A = [0, 0, 1, 1, 1, 2, 2, 2]
FIG1_B = [0, 1, 1, 1, 2, 2, 3, 3]
FIG1_C = [0, 1, 0, 0, 1, 0, 1, 2]


class TestConstruction:
    def test_from_column(self):
        partition = CsrPartition.from_column(FIG1_A)
        assert partition.class_sets() == {
            frozenset({0, 1}), frozenset({2, 3, 4}), frozenset({5, 6, 7})
        }
        assert partition.num_rows == 8

    def test_from_column_all_unique(self):
        partition = CsrPartition.from_column([3, 0, 1, 2])
        assert partition.num_classes == 0
        assert partition.is_superkey()

    def test_from_column_empty(self):
        partition = CsrPartition.from_column([])
        assert partition.num_rows == 0
        assert partition.num_classes == 0

    def test_from_classes(self):
        partition = CsrPartition.from_classes([[0, 2], [1], [3, 4, 5]], 6)
        assert partition.class_sets() == {frozenset({0, 2}), frozenset({3, 4, 5})}

    def test_from_column_negative_code_rejected(self):
        """Regression: a negative code used to surface as a raw numpy
        ValueError; it must be a DataError naming the offending row."""
        with pytest.raises(DataError, match=r"negative value code -4 at row 2"):
            CsrPartition.from_column([0, 1, -4, 1])

    def test_from_classes_overlap_rejected(self):
        with pytest.raises(DataError, match="overlap"):
            CsrPartition.from_classes([[0, 1], [1, 2]], 3)

    def test_from_classes_out_of_range(self):
        with pytest.raises(DataError):
            CsrPartition.from_classes([[0, 9]], 3)

    def test_empty_constructor(self):
        partition = CsrPartition.empty(10)
        assert partition.num_rows == 10
        assert partition.rank == 10

    def test_single_class(self):
        partition = CsrPartition.single_class(5)
        assert partition.rank == 1
        assert partition.error_count == 4

    def test_malformed_offsets_rejected(self):
        with pytest.raises(DataError):
            CsrPartition(np.array([0, 1]), np.array([0, 1]), 2)  # offsets end != size

    def test_class_sizes(self):
        partition = CsrPartition.from_column([0, 0, 0, 1, 1, 2])
        assert sorted(partition.class_sizes.tolist()) == [2, 3]

    def test_nbytes_positive(self):
        assert CsrPartition.from_column(FIG1_A).nbytes() > 0


class TestProduct:
    def test_figure1_bc(self):
        b = CsrPartition.from_column(FIG1_B)
        c = CsrPartition.from_column(FIG1_C)
        workspace = PartitionWorkspace(8)
        product = b.product(c, workspace)
        assert product.class_sets() == {frozenset({2, 3})}
        # workspace probe must be reset
        assert (workspace.probe == -1).all()

    def test_product_without_workspace(self):
        b = CsrPartition.from_column(FIG1_B)
        c = CsrPartition.from_column(FIG1_C)
        assert b.product(c).class_sets() == {frozenset({2, 3})}

    def test_product_commutative(self):
        a = CsrPartition.from_column(FIG1_A)
        b = CsrPartition.from_column(FIG1_B)
        assert a.product(b).class_sets() == b.product(a).class_sets()

    def test_product_with_empty(self):
        a = CsrPartition.from_column(FIG1_A)
        empty = CsrPartition.empty(8)
        assert a.product(empty).num_classes == 0
        assert empty.product(a).num_classes == 0

    def test_product_mismatched_rows(self):
        with pytest.raises(DataError):
            CsrPartition.from_column([0, 0]).product(CsrPartition.from_column([0, 0, 0]))

    def test_product_wrong_type(self):
        with pytest.raises(TypeError):
            CsrPartition.from_column([0, 0]).product(object())  # type: ignore[arg-type]



class TestExportAttach:
    """Raw-buffer export and zero-copy attach (disk spills write the
    exported buffers)."""

    def test_round_trip(self):
        original = CsrPartition.from_column([0, 0, 1, 1, 1, 2])
        indices, offsets = original.export_buffers()
        rebuilt = CsrPartition.attach(indices, offsets, original.num_rows)
        assert rebuilt.class_sets() == original.class_sets()
        assert rebuilt.num_rows == original.num_rows
        assert rebuilt.error_count == original.error_count

    def test_export_buffers_contiguous_int32(self):
        indices, offsets = CsrPartition.from_column([0, 0, 1]).export_buffers()
        for array in (indices, offsets):
            assert array.dtype == np.int32
            assert array.flags["C_CONTIGUOUS"]

class TestG3:
    def test_exact_dependency(self):
        b = CsrPartition.from_column(FIG1_B)
        c = CsrPartition.from_column(FIG1_C)
        a = CsrPartition.from_column(FIG1_A)
        bc = b.product(c)
        bca = bc.product(a)
        assert bc.g3_error_count(bca) == 0
        assert bc.refines_same_rank(bca)

    def test_a_to_b(self):
        a = CsrPartition.from_column(FIG1_A)
        b = CsrPartition.from_column(FIG1_B)
        ab = a.product(b)
        assert a.g3_error_count(ab) == 3
        assert not a.refines_same_rank(ab)

    def test_workspace_reset(self):
        a = CsrPartition.from_column(FIG1_A)
        b = CsrPartition.from_column(FIG1_B)
        ab = a.product(b)
        workspace = PartitionWorkspace(8)
        a.g3_error_count(ab, workspace)
        assert (workspace.probe == -1).all()

    def test_empty_lhs_partition(self):
        empty = CsrPartition.empty(4)
        other = CsrPartition.from_column([0, 0, 1, 1])
        assert empty.g3_error_count(other) == 0

    def test_mismatched_rows(self):
        with pytest.raises(DataError):
            CsrPartition.from_column([0, 0]).g3_error_count(CsrPartition.from_column([0]))

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            CsrPartition.from_column([0, 0]).g3_error_count("x")  # type: ignore[arg-type]

    def test_bounds(self):
        a = CsrPartition.from_column(FIG1_A)
        b = CsrPartition.from_column(FIG1_B)
        ab = a.product(b)
        low, high = a.g3_bound_counts(ab)
        assert low <= 3 <= high
