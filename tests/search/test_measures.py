"""Unit tests for the measure formulas and evaluate_validity, in
isolation from any driver or composition root."""

import numpy as np
import pytest

from repro.partition.vectorized import CsrPartition, PartitionWorkspace
from repro.search.measures import (
    MEASURES,
    RHS_STATS_MEASURES,
    SCORE_MEASURES,
    ValidityCriteria,
    attribute_stats,
    evaluate_validity,
)


def _partition(codes):
    return CsrPartition.from_column(codes, len(codes))


def _criteria(
    epsilon, measure="g3", *, num_rows, use_g3_bounds=True, rhs_codes=None
):
    rhs_stats = ()
    if rhs_codes is not None:
        rhs_stats = (attribute_stats(rhs_codes, num_rows),)
    return ValidityCriteria(
        epsilon=epsilon,
        epsilon_count=int(epsilon * num_rows + 1e-9),
        measure=measure,
        use_g3_bounds=use_g3_bounds,
        num_rows=num_rows,
        rhs_stats=rhs_stats,
    )


class TestRegistry:
    def test_all_measures_registered(self):
        assert list(MEASURES) == [
            "g3", "g1", "g2", "pdep", "tau", "mu_plus", "fi", "rfi",
        ]

    def test_score_measures_are_registered(self):
        assert set(SCORE_MEASURES) <= set(MEASURES)
        assert RHS_STATS_MEASURES <= set(MEASURES)


class TestExactPath:
    def test_equal_error_counts_exactly_valid(self):
        pi = _partition([0, 0, 1, 1])
        outcome = evaluate_validity(pi, pi, _criteria(0.0, num_rows=4))
        assert outcome.valid and outcome.exactly_valid
        assert outcome.error == 0.0
        assert not outcome.error_computed and not outcome.bound_rejected

    def test_exact_mode_rejects_without_error_computation(self):
        # lhs has one class of 4 rows; refined by rhs -> not exactly valid.
        pi_lhs = _partition([0, 0, 0, 0])
        pi_whole = _partition([0, 0, 1, 1])
        outcome = evaluate_validity(pi_lhs, pi_whole, _criteria(0.0, num_rows=4))
        assert not outcome.valid and not outcome.exactly_valid
        assert not outcome.error_computed and not outcome.bound_rejected


class TestG3:
    def test_within_threshold_valid(self):
        pi_lhs = _partition([0, 0, 0, 0])
        pi_whole = _partition([0, 0, 0, 1])
        outcome = evaluate_validity(pi_lhs, pi_whole, _criteria(0.25, num_rows=4))
        assert outcome.valid and not outcome.exactly_valid
        assert outcome.error == pytest.approx(0.25)
        assert outcome.error_computed

    @pytest.mark.parametrize("num_rows", [3, 7, 10, 49, 1000, 100_003])
    def test_integer_threshold(self, num_rows):
        # The paper's integer test count <= floor(ε|r|) decides, not the
        # float ε: the rule compares count / n with floor(ε|r|) / n, and
        # dividing counts by n keeps their order, ties included.
        errors = np.arange(num_rows + 1) / num_rows
        assert (np.diff(errors) > 0).all()
        pi_lhs = _partition([0] * num_rows)
        pi_whole = _partition([0] * (num_rows - 2) + [1, 2])
        criteria = _criteria(0.5, num_rows=num_rows, use_g3_bounds=False)
        at = evaluate_validity(pi_lhs, pi_whole, criteria._replace(epsilon_count=2))
        below = evaluate_validity(pi_lhs, pi_whole, criteria._replace(epsilon_count=1))
        assert at.valid and not below.valid
        assert at.error == below.error == 2 / num_rows

    def test_bound_rejection_skips_exact_computation(self):
        # Every lhs class splits in half under the rhs: the g3 lower
        # bound already exceeds a tiny threshold.
        pi_lhs = _partition([0, 0, 0, 0, 1, 1, 1, 1])
        pi_whole = _partition([0, 0, 1, 1, 2, 2, 3, 3])
        outcome = evaluate_validity(
            pi_lhs, pi_whole, _criteria(0.01, num_rows=8)
        )
        assert not outcome.valid
        assert outcome.bound_rejected and not outcome.error_computed

    def test_bounds_disabled_always_computes(self):
        pi_lhs = _partition([0, 0, 0, 0, 1, 1, 1, 1])
        pi_whole = _partition([0, 0, 1, 1, 2, 2, 3, 3])
        outcome = evaluate_validity(
            pi_lhs, pi_whole, _criteria(0.01, num_rows=8, use_g3_bounds=False)
        )
        assert not outcome.valid
        assert outcome.error_computed and not outcome.bound_rejected


class TestG1G2:
    @pytest.mark.parametrize("measure", ["g1", "g2"])
    def test_never_bound_rejects(self, measure):
        pi_lhs = _partition([0, 0, 0, 0])
        pi_whole = _partition([0, 0, 1, 1])
        outcome = evaluate_validity(
            pi_lhs, pi_whole, _criteria(1.0, measure, num_rows=4)
        )
        assert outcome.valid
        assert outcome.error_computed and not outcome.bound_rejected

    def test_g1_and_g2_measure_different_quantities(self):
        pi_lhs = _partition([0, 0, 0, 0])
        pi_whole = _partition([0, 0, 0, 1])
        criteria = {
            m: _criteria(1.0, m, num_rows=4) for m in ("g1", "g2")
        }
        ws = PartitionWorkspace(4)
        g1 = evaluate_validity(pi_lhs, pi_whole, criteria["g1"], ws)
        g2 = evaluate_validity(pi_lhs, pi_whole, criteria["g2"], ws)
        # g1 counts violating pairs (3 of 16 ordered non-trivial pairs);
        # g2 counts rows in violations (all 4 rows share a class).
        assert g1.error < g2.error


class TestScoreMeasures:
    """The score-convention measures share the Lemma 2 / bound plumbing."""

    @pytest.mark.parametrize("measure", SCORE_MEASURES)
    def test_exact_fd_is_error_zero(self, measure):
        # Lemma 2 short-circuits before any score math — including rfi,
        # whose textbook score of an exact FD would be below 1.
        pi = _partition([0, 0, 1, 1])
        criteria = _criteria(0.25, measure, num_rows=4, rhs_codes=[0, 0, 1, 1])
        outcome = evaluate_validity(pi, pi, criteria, rhs_index=0)
        assert outcome.valid and outcome.exactly_valid
        assert outcome.error == 0.0
        assert not outcome.error_computed

    @pytest.mark.parametrize("measure", ("pdep", "tau", "mu_plus"))
    def test_g3_bound_short_circuits(self, measure):
        # Every lhs class splits in half: g3 lower bound is 0.5, and
        # 1 - pdep >= g3 (per class sum(m_i^2) <= s * max m), so the
        # integer bound soundly rejects without touching floats.
        pi_lhs = _partition([0, 0, 0, 0, 1, 1, 1, 1])
        pi_whole = _partition([0, 0, 1, 1, 2, 2, 3, 3])
        rhs = [0, 0, 1, 1, 0, 0, 1, 1]
        criteria = _criteria(0.01, measure, num_rows=8, rhs_codes=rhs)
        outcome = evaluate_validity(pi_lhs, pi_whole, criteria, rhs_index=0)
        assert not outcome.valid
        assert outcome.bound_rejected and not outcome.error_computed

    @pytest.mark.parametrize("measure", ("fi", "rfi"))
    def test_entropy_measures_never_bound_reject(self, measure):
        # H(A|X)/H(A) is not bounded below by g3, so no short-circuit.
        pi_lhs = _partition([0, 0, 0, 0, 1, 1, 1, 1])
        pi_whole = _partition([0, 0, 1, 1, 2, 2, 3, 3])
        rhs = [0, 0, 1, 1, 0, 0, 1, 1]
        criteria = _criteria(0.01, measure, num_rows=8, rhs_codes=rhs)
        outcome = evaluate_validity(pi_lhs, pi_whole, criteria, rhs_index=0)
        assert not outcome.valid
        assert outcome.error_computed and not outcome.bound_rejected

    @pytest.mark.parametrize("measure", sorted(RHS_STATS_MEASURES))
    def test_stats_dependent_measures_demand_stats(self, measure):
        pi_lhs = _partition([0, 0, 0, 0])
        pi_whole = _partition([0, 0, 0, 1])
        criteria = _criteria(0.5, measure, num_rows=4)
        with pytest.raises(ValueError, match="rhs_stats"):
            evaluate_validity(pi_lhs, pi_whole, criteria, rhs_index=0)

    @pytest.mark.parametrize("measure", SCORE_MEASURES)
    def test_error_is_clamped_to_unit_interval(self, measure):
        pi_lhs = _partition([0, 0, 0, 0, 0, 0])
        pi_whole = _partition([0, 1, 2, 3, 4, 5])
        rhs = [0, 1, 2, 3, 4, 5]
        criteria = _criteria(
            1.0, measure, num_rows=6, use_g3_bounds=False, rhs_codes=rhs
        )
        outcome = evaluate_validity(pi_lhs, pi_whole, criteria, rhs_index=0)
        assert 0.0 <= outcome.error <= 1.0
