"""Tests for the g1/g2/g3 counts of the contingency table, and the
engines' own g3 count."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import DataError
from repro.partition.errors import contingency, g1_count, g2_count, g3_count
from repro.partition.pure import PurePartition
from repro.partition.vectorized import CsrPartition


def make(engine, codes):
    return engine.from_column(codes)


def joint(a, b):
    return [x * 10 + y for x, y in zip(a, b)]


def counts(pi_x, pi_xa):
    """``(g1, g2, g3)`` row counts of ``X -> A``."""
    table = contingency(pi_x, pi_xa)
    return g1_count(table), g2_count(table), g3_count(table)


ENGINES = [PurePartition, CsrPartition]


@pytest.mark.parametrize("engine", ENGINES)
class TestMeasures:
    def test_exact_dependency_all_zero(self, engine):
        lhs_codes = [0, 0, 1, 1]
        rhs_codes = [5, 5, 6, 6]
        pi_x = make(engine, lhs_codes)
        pi_xa = make(engine, joint(lhs_codes, rhs_codes))
        assert counts(pi_x, pi_xa) == (0, 0, 0)
        assert pi_x.g3_error_count(pi_xa) == 0

    def test_single_violation(self, engine):
        # Group {0,1,2} has rhs values [7,7,8]: one removal.
        lhs_codes = [0, 0, 0, 1]
        rhs_codes = [7, 7, 8, 9]
        pi_x = make(engine, lhs_codes)
        pi_xa = make(engine, joint(lhs_codes, rhs_codes))
        g1, g2, g3 = counts(pi_x, pi_xa)
        # g3: remove one of four rows.
        assert g3 == pi_x.g3_error_count(pi_xa) == 1
        # g2: all three rows of the broken group are involved.
        assert g2 == 3
        # g1: ordered violating pairs: (0,2),(2,0),(1,2),(2,1) of 16.
        assert g1 == 4

    def test_empty_relation(self, engine):
        pi = make(engine, [])
        assert counts(pi, pi) == (0, 0, 0)
        assert pi.g3_error_count(pi) == 0

    def test_mismatched_rows_rejected(self, engine):
        with pytest.raises(DataError):
            make(engine, [0, 0]).g3_error_count(make(engine, [0, 0, 0]))

    def test_bounds(self, engine):
        lhs_codes = [0, 0, 0, 1, 1]
        rhs_codes = [7, 7, 8, 9, 9]
        pi_x = make(engine, lhs_codes)
        pi_xa = make(engine, joint(lhs_codes, rhs_codes))
        low, high = pi_x.g3_bound_counts(pi_xa)
        assert low <= counts(pi_x, pi_xa)[2] == 1 <= high


def columns_pair():
    return st.integers(min_value=0, max_value=30).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
        )
    )


class TestProperties:
    @given(columns_pair())
    def test_measures_in_range_and_ordered(self, columns):
        """Kivinen & Mannila: g3 and g1 are bounded by g2, all in [0,1]."""
        lhs_codes, rhs_codes = columns
        n = len(lhs_codes)
        pi_x = CsrPartition.from_column(lhs_codes)
        pi_xa = CsrPartition.from_column(joint(lhs_codes, rhs_codes))
        g1, g2, g3 = counts(pi_x, pi_xa)
        assert g3 == pi_x.g3_error_count(pi_xa)
        # As fractions g1 / n², g2 / n and g3 / n: in [0, 1], and
        # g1 and g3 at most g2.
        assert 0 <= g1 <= g2 * n <= n * n
        assert 0 <= g3 <= g2
        # all three agree on whether the dependency holds exactly
        assert (g1 == 0) == (g2 == 0) == (g3 == 0)

    @given(columns_pair())
    def test_engines_agree_on_measures(self, columns):
        lhs_codes, rhs_codes = columns
        joint_codes = joint(lhs_codes, rhs_codes)
        pure_x, pure_xa = PurePartition.from_column(lhs_codes), PurePartition.from_column(joint_codes)
        csr_x, csr_xa = CsrPartition.from_column(lhs_codes), CsrPartition.from_column(joint_codes)
        assert counts(pure_x, pure_xa) == counts(csr_x, csr_xa)
        assert pure_x.g3_error_count(pure_xa) == csr_x.g3_error_count(csr_xa)
