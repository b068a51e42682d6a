"""The one contingency table behind every measure.

``g3``, ``g1`` and ``g2`` are integer counts of one contingency table
of ``pi_lhs`` refined by ``pi_whole``; ``pdep``, ``tau``, ``mu_plus``,
``fi`` and ``rfi`` are computed from the same table and summed with
``math.fsum``.  The table has three front ends: two CSR partitions,
two label rows of a level block, and the pure engine's classes.  Four
properties pin it, per test and per discovery run:

* it agrees with the definitional bruteforce oracle to 1e-12;
* the CSR and pure engines give bit-identical errors (they build the
  same integer arrays, and every float is a term-wise function of them);
* so do label rows, read from a level block as a levelwise walk over a
  short relation reads them: the singletons' block built from the
  column codes, products by the blocks' kernel, π_∅ one class of every
  row;
* shuffling the rows leaves every error bit-identical (``fsum`` does
  not depend on the order of its terms).

Discovery runs take the node engine (``dfd``), whose tests read CSR
partitions, for the monotone measures, and check the levelwise walk,
whose tests read label rows, against it; ``mu_plus`` and ``rfi``,
which ``dfd`` refuses, run levelwise only.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import _bitset
from repro.baselines.bruteforce import dependency_error
from repro.core.tane import TaneConfig, discover
from repro.partition.errors import LabelRow
from repro.partition.pure import PurePartition
from repro.partition.vectorized import (
    LABEL_DTYPE,
    CsrPartition,
    LevelBlock,
    PartitionWorkspace,
    dense_relation,
)
from repro.search.measures import (
    MEASURES,
    ValidityCriteria,
    evaluate_validity,
    relation_rhs_stats,
)
from repro.testing.strategies import relations

RELATIONS = relations(min_rows=0, max_rows=24, min_columns=2, max_columns=4)

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _partition(engine, relation, mask):
    """``pi_mask`` on ``engine``, multiplied up from the singletons."""
    n = relation.num_rows
    if mask == 0:
        return engine.single_class(n)
    indices = _bitset.to_indices(mask)
    product = engine.from_column(relation.column_codes(indices[0]), n)
    for index in indices[1:]:
        product = product.product(engine.from_column(relation.column_codes(index), n))
    return product


LABEL_ROWS = "label rows"
"""The label-row front end, as one more engine of :func:`_errors`."""


def _measured(engine, relation, mask):
    """What a test on ``engine`` reads for ``mask``: its partition, or
    its row of a level block.  As in a walk, a relation too short for
    level blocks keeps CSR partitions."""
    if engine != LABEL_ROWS:
        return _partition(engine, relation, mask)
    n = relation.num_rows
    if not dense_relation(n):
        return _partition(CsrPartition, relation, mask)
    if mask == 0:
        return LabelRow(np.zeros(n, dtype=LABEL_DTYPE), 1, n - 1)
    singletons = LevelBlock.from_columns(relation)
    block = singletons if _bitset.popcount(mask) == 1 else singletons.chains([mask])
    return block.row(mask)


def _errors(relation, measure, engine=CsrPartition):
    """Every test ``X -> A`` with ``|X| <= 2``, measured on ``engine``."""
    n = relation.num_rows
    criteria = ValidityCriteria(
        epsilon=1.0,
        epsilon_count=n,
        measure=measure,
        use_g3_bounds=False,
        num_rows=n,
        rhs_stats=relation_rhs_stats(relation),
    )
    workspace = PartitionWorkspace(n) if engine is CsrPartition else None
    errors = {}
    for rhs in range(relation.num_attributes):
        others = [a for a in range(relation.num_attributes) if a != rhs]
        for size in range(3):
            for lhs_indices in itertools.combinations(others, size):
                lhs = _bitset.from_indices(lhs_indices)
                outcome = evaluate_validity(
                    _measured(engine, relation, lhs),
                    _measured(engine, relation, lhs | _bitset.bit(rhs)),
                    criteria,
                    workspace,
                    rhs,
                )
                errors[(lhs, rhs)] = outcome.error
    return errors


def _shuffled(relation, permutation):
    return relation.take(permutation)


MEASURE = st.sampled_from(tuple(MEASURES))


@st.composite
def shuffled_relations(draw):
    relation = draw(RELATIONS)
    permutation = draw(st.permutations(range(relation.num_rows)))
    return relation, list(permutation)


class TestPerTest:
    @settings(max_examples=40, **COMMON)
    @given(relation=RELATIONS, measure=MEASURE)
    def test_agrees_with_the_bruteforce_oracle(self, relation, measure):
        for engine in (CsrPartition, LABEL_ROWS):
            for (lhs, rhs), error in _errors(relation, measure, engine).items():
                oracle = dependency_error(relation, lhs, rhs, measure)
                assert error == pytest.approx(oracle, abs=1e-12), (engine, lhs, rhs)

    @settings(max_examples=40, **COMMON)
    @given(relation=RELATIONS, measure=MEASURE)
    def test_csr_and_pure_engines_agree_bit_for_bit(self, relation, measure):
        # Label rows too: each engine is one front end of the table.
        reference = _errors(relation, measure)
        assert _errors(relation, measure, PurePartition) == reference
        assert _errors(relation, measure, LABEL_ROWS) == reference

    @settings(max_examples=40, **COMMON)
    @given(data=shuffled_relations(), measure=MEASURE)
    def test_row_shuffle_is_bit_identical(self, data, measure):
        relation, permutation = data
        assert _errors(relation, measure) == _errors(
            _shuffled(relation, permutation), measure
        )


def _discovered(relation, measure, **config):
    config.setdefault("strategy", "levelwise" if measure in ("mu_plus", "rfi") else "dfd")
    result = discover(
        relation,
        TaneConfig(epsilon=0.25, measure=measure, **config),
    )
    return sorted((fd.lhs, fd.rhs, fd.error) for fd in result.dependencies)


class TestDiscovery:
    @settings(max_examples=25, **COMMON)
    @given(data=shuffled_relations(), measure=MEASURE)
    def test_engines_and_row_order_give_identical_errors(self, data, measure):
        relation, permutation = data
        reference = _discovered(relation, measure)
        assert _discovered(relation, measure, engine="pure") == reference
        assert _discovered(_shuffled(relation, permutation), measure) == reference
        assert _discovered(relation, measure, strategy="levelwise") == reference
