"""Golden-fixture tests: hand-computed measure values on tiny relations.

Every value below was derived on paper from the definitions in
``docs/MEASURES.md`` and is pinned exactly (or to float tolerance where
the definition itself sums floats).  Both the partition-side measures
and the definitional bruteforce oracle must hit the same constants —
a regression in either side trips a pin, a regression in both trips
the cross-check in ``tests/search/test_measures_properties.py``.
"""

import pytest

from repro.baselines.bruteforce import dependency_error, dependency_rfi
from repro.datasets.synthetic import (
    DEGENERATE_KINDS,
    degenerate_relation,
    random_relation,
)
from repro.model.relation import Relation
from repro.partition.pure import PurePartition
from repro.partition.vectorized import CsrPartition, LevelBlock
from repro.search.measures import (
    MEASURES,
    ValidityCriteria,
    evaluate_validity,
    relation_rhs_stats,
)

LHS_MASK = 0b01
RHS = 1


def _engine_pair(engine):
    """``π_X`` and ``π_{XA}`` of ``X -> A`` on a partition engine."""

    def pair(relation):
        n = relation.num_rows
        pi_lhs = engine.from_column(relation.column_codes(0), n)
        return pi_lhs, pi_lhs.product(engine.from_column(relation.column_codes(RHS), n))

    return pair


def _label_row_pair(relation):
    """The same pair as the label rows of a level block, built from the
    codes of ``X`` and of the joint ``XA`` (any row count, even 0)."""
    lhs, rhs = relation.column_codes(0), relation.column_codes(RHS)
    joint = lhs * (int(rhs.max(initial=0)) + 1) + rhs
    block = LevelBlock.from_columns(Relation.from_codes([lhs, joint], ["X", "XA"]))
    return block.row(0b01), block.row(0b10)


PAIR_FORMS = {
    "csr": _engine_pair(CsrPartition),
    "pure": _engine_pair(PurePartition),
    "label-rows": _label_row_pair,
}


def _outcome(relation, measure, form="csr"):
    """Test ``X -> A`` through :func:`evaluate_validity` at ε = 1."""
    n = relation.num_rows
    criteria = ValidityCriteria(
        epsilon=1.0,
        epsilon_count=n,
        measure=measure,
        use_g3_bounds=False,
        num_rows=n,
        rhs_stats=relation_rhs_stats(relation),
    )
    pi_lhs, pi_whole = PAIR_FORMS[form](relation)
    return evaluate_validity(pi_lhs, pi_whole, criteria, rhs_index=RHS)


def _measure_error(relation, measure):
    """Evaluate one measure through the partition-side implementation."""
    return _outcome(relation, measure).error


# X = [0, 0, 1, 1], A = [0, 1, 2, 2]:
#   lhs classes {0,1} (rhs counts 1,1) and {2,3} (rhs counts 2);
#   pdep = [(1+1)/2 + 4/2]/4 = 3/4                       -> error 1/4
#   pdep(A) = (1+1+4)/16 = 3/8, tau = (3/4-3/8)/(5/8)    -> error 2/5
#   mu = 1 - (1/4)(3)/2 = 5/8, mu_plus = 5/8             -> error 3/8
#   H(A) = (3/2)ln2, H(A|X) = (1/2)ln2, FI = 1 - 1/3     -> error 1/3
#   E[I] = (2/3)ln2 (see TestRfiGolden), rfi = 2/3 - 4/9   -> error 7/9
SPLIT = Relation.from_rows([(0, 0), (0, 1), (1, 2), (1, 2)], ["X", "A"])

# X = [0, 0, 0, 0], A = [0, 0, 0, 1]: one lhs class, 3:1 rhs split;
#   pdep = (9+1)/16 = 5/8 = pdep(A)                      -> error 3/8
#   tau = 0 (no association beyond the marginal)         -> error 1
#   mu = 1 - (3/8)(3)/3 = 5/8                            -> error 3/8
#   H(A|X) = H(A) (the single class is the whole column) -> FI error 1
SINGLE_CLASS = Relation.from_rows(
    [(0, 0), (0, 0), (0, 0), (0, 1)], ["X", "A"]
)

# X = [0, 1, 2, 3] (a key): exact FD, every measure error 0.
KEY = Relation.from_rows([(0, 0), (1, 0), (2, 1), (3, 1)], ["X", "A"])

# A constant: π_X = π_XA, so Lemma 2 settles X -> A before any
# formula could divide by tau's 1 - pdep(A) = 0 or FI's H(A) = 0.
CONSTANT_RHS = Relation.from_rows(
    [(0, 0), (0, 0), (1, 0), (1, 0)], ["X", "A"]
)

GOLDEN = [
    ("g3", SPLIT, 0.25),
    ("g1", SPLIT, 0.125),
    ("g2", SPLIT, 0.5),
    ("pdep", SPLIT, 0.25),
    ("tau", SPLIT, 0.4),
    ("mu_plus", SPLIT, 0.375),
    ("fi", SPLIT, 1.0 / 3.0),
    ("pdep", SINGLE_CLASS, 0.375),
    ("tau", SINGLE_CLASS, 1.0),
    ("mu_plus", SINGLE_CLASS, 0.375),
    ("fi", SINGLE_CLASS, 1.0),
    ("rfi", SINGLE_CLASS, 1.0),
]
GOLDEN += [(m, KEY, 0.0) for m in MEASURES]
GOLDEN += [
    (m, CONSTANT_RHS, 0.0)
    for m in ("pdep", "tau", "mu_plus", "fi", "rfi")
]
GOLDEN += [("rfi", SPLIT, 7.0 / 9.0)]


class TestGoldenValues:
    @pytest.mark.parametrize("measure,relation,expected", GOLDEN)
    def test_partition_side(self, measure, relation, expected):
        error = _measure_error(relation, measure)
        assert error == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("measure,relation,expected", GOLDEN)
    def test_oracle_side(self, measure, relation, expected):
        error = dependency_error(relation, LHS_MASK, RHS, measure)
        assert error == pytest.approx(expected, abs=1e-12)


class TestRfiGolden:
    """rfi's permutation bias on SPLIT, derived by hand.

    The permutation model deals A's values {0, 1, 2, 2} over the rows;
    X's classes are rows {0, 1} and {2, 3}.  Up to symmetry there are
    two outcomes.  With probability 1/3 the two 2s share a class: the
    classes hold {2, 2} and {0, 1}, so H(A|X) = (1/2)ln2 and
    I = ln2.  With probability 2/3 each class holds one 2, so
    H(A|X) = ln2 and I = (1/2)ln2.  Hence E[I] = (1/3)ln2 + (1/3)ln2
    = (2/3)ln2, the bias is E[I]/H(A) = (2/3)/(3/2) = 4/9, and
    rfi = 2/3 - 4/9 = 2/9: error 7/9.
    """

    PINNED = 7.0 / 9.0

    def test_pinned_value(self):
        assert _measure_error(SPLIT, "rfi") == pytest.approx(
            self.PINNED, abs=1e-12
        )

    def test_oracle_agrees_exactly(self):
        assert dependency_rfi(SPLIT, LHS_MASK, RHS) == pytest.approx(
            self.PINNED, abs=1e-12
        )

    def test_deterministic_across_calls(self):
        first = _measure_error(SPLIT, "rfi")
        assert all(_measure_error(SPLIT, "rfi") == first for _ in range(3))

    def test_rfi_never_beats_fi(self):
        # bias >= 0 always, so the rfi score <= fi score (error >=).
        assert _measure_error(SPLIT, "rfi") >= _measure_error(SPLIT, "fi")

    @pytest.mark.parametrize("seed", range(20))
    def test_rfi_at_most_fi_with_no_tolerance(self, seed):
        # E[I] >= 0 exactly, and rfi subtracts it from the very fi
        # score the fi formula computes, so the order holds in floats too.
        relation = random_relation(12 + seed, 2, 3 + seed % 4, seed=seed)
        assert _measure_error(relation, "rfi") >= _measure_error(relation, "fi")


class TestDegenerateShapes:
    """Every measure must be a clean 0 on the degenerate generator zoo."""

    @pytest.mark.parametrize("kind", DEGENERATE_KINDS)
    @pytest.mark.parametrize("measure", sorted(MEASURES))
    def test_degenerate_error_zero(self, kind, measure):
        relation = degenerate_relation(kind, 8, 2, 3, seed=5)
        if relation.num_attributes < 2:
            pytest.skip("needs two attributes for a non-trivial pair")
        error = dependency_error(relation, LHS_MASK, RHS, measure)
        assert error == 0.0

    @pytest.mark.parametrize("form", sorted(PAIR_FORMS))
    @pytest.mark.parametrize("kind", DEGENERATE_KINDS)
    @pytest.mark.parametrize("measure", sorted(MEASURES))
    def test_lemma_2_settles_degenerate_pairs(self, form, kind, measure):
        # No rows, one row or a constant rhs: e(X) = e(XA), so no
        # formula runs, on any partition form.
        relation = degenerate_relation(kind, 8, 2, 3, seed=5)
        if relation.num_attributes < 2:
            pytest.skip("needs two attributes for a non-trivial pair")
        outcome = _outcome(relation, measure, form)
        assert outcome.error == 0.0
        assert outcome.exactly_valid and not outcome.error_computed


class TestResultLabeling:
    """Rendered output labels errors with the measure that produced them."""

    def test_discovery_result_carries_and_renders_the_measure(self):
        from repro import TaneConfig, discover

        result = discover(SPLIT, TaneConfig(epsilon=0.3, measure="tau"))
        assert result.measure == "tau"
        assert "measure=tau" in repr(result)
        rendered = result.format()
        assert "g3=" not in rendered
        # SPLIT's X -> A holds at tau error 2/5 > 0.3, but A -> X at 0.
        if "=" in rendered.splitlines()[-1]:
            assert "tau=" in rendered

    def test_default_measure_keeps_the_g3_label(self):
        from repro import TaneConfig, discover

        result = discover(SPLIT, TaneConfig(epsilon=0.3))
        assert result.measure == "g3"
        assert "measure=" not in repr(result)
