"""Property-based tests for the AFD measure suite.

Three families of invariants, each over the shared relation strategy
pool (:mod:`repro.testing.strategies`):

* range — every measure's error lands in ``[0, 1]`` on every relation;
* determinism — the vectorized and pure partition engines produce
  bit-identical errors, and a full run's approximate errors match the
  bruteforce oracle (fixed-seed, parametrized);
* dominance — ``rfi <= fi`` as scores (error >=) on every relation,
  because the permutation bias is non-negative by construction.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import _bitset
from repro.baselines.bruteforce import (
    dependency_error,
    dependency_fi,
    dependency_rfi,
)
from repro.core.tane import TaneConfig, discover
from repro.datasets.synthetic import random_relation
from repro.search.measures import MEASURES, SCORE_MEASURES
from repro.testing.strategies import relations

RELATIONS = relations(min_rows=0, max_rows=24, min_columns=2, max_columns=4)

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _pairs(relation):
    """All (lhs_mask, rhs) single-attribute pairs of a relation."""
    for rhs in range(relation.num_attributes):
        for lhs in range(relation.num_attributes):
            if lhs != rhs:
                yield _bitset.from_indices((lhs,)), rhs


class TestRange:
    @settings(max_examples=40, **COMMON)
    @given(relation=RELATIONS, measure=st.sampled_from(sorted(MEASURES)))
    def test_error_in_unit_interval(self, relation, measure):
        for lhs_mask, rhs in _pairs(relation):
            error = dependency_error(relation, lhs_mask, rhs, measure)
            assert 0.0 <= error <= 1.0


class TestEngineDeterminism:
    @settings(max_examples=25, **COMMON)
    @given(relation=RELATIONS, measure=st.sampled_from(SCORE_MEASURES))
    def test_vectorized_and_pure_agree_exactly(self, relation, measure):
        config = dict(epsilon=0.25, measure=measure)
        vectorized = discover(relation, TaneConfig(engine="vectorized", **config))
        pure = discover(relation, TaneConfig(engine="pure", **config))
        assert set(vectorized.dependencies) == set(pure.dependencies)
        errors = {(fd.lhs, fd.rhs): fd.error for fd in pure.dependencies}
        for fd in vectorized.dependencies:
            # Bit-exact: both engines build the same integer
            # contingency arrays, and math.fsum rounds their terms'
            # sum independently of order.
            assert errors[(fd.lhs, fd.rhs)] == fd.error


class TestRfiDominance:
    @settings(max_examples=40, **COMMON)
    @given(relation=RELATIONS)
    def test_rfi_error_at_least_fi_error(self, relation):
        for lhs_mask, rhs in _pairs(relation):
            fi = dependency_fi(relation, lhs_mask, rhs)
            rfi = dependency_rfi(relation, lhs_mask, rhs)
            assert rfi >= fi - 1e-12


class TestOracleAgreement:
    """A full run's approximate errors match the bruteforce oracle
    (fixed seeds, one run per measure)."""

    @pytest.mark.parametrize("measure", ("tau", "rfi"))
    def test_run_matches_oracle(self, measure):
        relation = random_relation(30, 3, 3, seed=7)
        result = discover(relation, TaneConfig(epsilon=0.3, measure=measure))
        for fd in result.dependencies:
            if fd.error == 0.0:
                continue
            oracle = dependency_error(relation, fd.lhs, fd.rhs, measure)
            assert fd.error == pytest.approx(oracle, abs=1e-9)
