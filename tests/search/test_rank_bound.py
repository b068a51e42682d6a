"""The g3 lower bound ``e(X∖{A}) − e(X)`` rejects a levelwise pair from
its two ranks, before the executor fetches a partition.

The bound short-circuits ``g3``, ``pdep``, ``tau`` and ``mu_plus``
tests.  A level's pairs already carry both ranks, so a rejected pair
must cost no fetch, and every outcome and counter must match the
per-pair path, which evaluates each test through its measure.
"""

import numpy as np
import pytest

import repro.search.strategy as strategy_module
from repro.core.tane import TaneConfig, discover
from repro.datasets.uci import make_hepatitis_like
from repro.model.relation import Relation
from repro.search.measures import (
    ValidityCriteria,
    ValidityOutcome,
    bound_outcome,
    bound_rejects,
)
from repro.search.partitions import PartitionManager


def summary(result):
    s = result.statistics
    return (
        [(fd.lhs, fd.rhs, fd.error) for fd in result.dependencies],
        list(result.keys),
        s.validity_tests,
        s.error_computations,
        s.g3_bound_rejections,
    )


def test_bound_rejections_fetch_no_partition(monkeypatch):
    fetches = []
    get = PartitionManager.get

    def counting(self, mask):
        fetches.append(mask)
        return get(self, mask)

    monkeypatch.setattr(PartitionManager, "get", counting)
    result = discover(
        make_hepatitis_like(1), TaneConfig(measure="g3", epsilon=0.05, max_lhs_size=4)
    )
    s = result.statistics
    assert s.g3_bound_rejections > 10 * s.error_computations > 0
    # Each measured test fetches its lhs, and each group its whole once.
    assert len(fetches) <= 2 * s.error_computations


@pytest.mark.parametrize("measure", ["g3", "pdep", "tau", "mu_plus", "fi"])
@pytest.mark.parametrize("epsilon", [0.05, 0.3])
def test_rank_bound_matches_the_per_pair_path(measure, epsilon, monkeypatch):
    # Column 5 is constant: every test with rhs 5 passes Lemma 2's
    # rank test, so neither path reaches the bound for it.
    rng = np.random.default_rng(5)
    columns = [rng.integers(0, domain, size=80) for domain in (2, 3, 4, 3, 6)]
    columns.append(np.zeros(80, dtype=np.int64))
    relation = Relation.from_codes(columns, list("ABCDEF"))
    config = TaneConfig(measure=measure, epsilon=epsilon)
    arrays = discover(relation, config)
    with monkeypatch.context() as patch:
        # Nothing rejected from the ranks: every failing pair goes
        # through its measure, which applies the bound per pair.
        patch.setattr(
            strategy_module,
            "bound_rejects",
            lambda lower, criteria: np.zeros(np.shape(lower), dtype=bool),
        )
        reference = discover(relation, config)
    assert summary(arrays) == summary(reference)
    if measure != "fi":
        assert arrays.statistics.g3_bound_rejections > 0


def test_the_rule_per_measure():
    def criteria(measure, epsilon=0.1):
        return ValidityCriteria(epsilon, int(epsilon * 100), measure, True, 100)

    # g3 compares rows with floor(ε|r|); the score measures compare the
    # fraction with ε plus a float margin.
    assert bound_rejects(11, criteria("g3")) and not bound_rejects(10, criteria("g3"))
    assert bound_rejects(11, criteria("pdep")) and not bound_rejects(10, criteria("pdep"))
    assert not bound_rejects(90, criteria("fi"))
    assert not bound_rejects(90, criteria("g3")._replace(use_g3_bounds=False))
    # Elementwise over a level's pairs.
    lower = np.array([11, 11, 10])
    assert bound_rejects(lower, criteria("tau")).tolist() == [True, True, False]
    assert bound_rejects(lower, criteria("mu_plus")).tolist() == [True, True, False]
    assert bound_outcome(11, criteria("g3")) == ValidityOutcome(False, False, 0.11, True, False)
