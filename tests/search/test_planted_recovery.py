"""Planted-FD recovery per measure under corruption.

For every registered error measure: plant exact dependencies
(:func:`repro.datasets.synthetic.planted_fd_relation`), corrupt a
fraction of each dependent column's cells, then run the full search at
a threshold calibrated per measure — ``epsilon = 1.5 x`` the largest
definitional error any planted FD shows after corruption.  Each
measure, run end to end through config, search, bounds and executor
plumbing, must find the planted structure back:

* recall 1.0 — every planted ``X -> A`` is entailed by a discovered
  ``Y -> A`` with ``Y`` a subset of ``X``;
* precision@k >= 0.5, ``k = #planted`` — of the ``k`` lowest-error
  discovered FDs, at least half hold exactly in the *uncorrupted*
  relation.  Corruption can make an invented FD outrank a planted one
  (the phenomenon the comparative AFD-measure studies measure), but a
  measure letting half the top-k be noise is broken.
"""

import pytest

from repro.baselines.bruteforce import dependency_error, dependency_holds
from repro.core.tane import TaneConfig, discover
from repro.datasets.corrupt import corrupt_cells
from repro.datasets.synthetic import planted_fd_relation
from repro.search.measures import MEASURES

ROWS = 120
CORRUPTION = 0.05
EPSILON_HEADROOM = 1.5
"""Threshold multiplier over the worst planted-FD error: tight enough
that the search cannot return everything, loose enough that float
noise in the error computation never strands a planted FD."""
MIN_PRECISION = 0.5


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_planted_dependencies_recovered(measure, seed):
    clean, planted = planted_fd_relation(ROWS, 2, 2, seed=seed)
    relation = clean
    for fd in planted:
        relation, _ = corrupt_cells(relation, fd.rhs, CORRUPTION, seed=seed + fd.rhs)
    worst = max(dependency_error(relation, fd.lhs, fd.rhs, measure) for fd in planted)
    epsilon = min(0.99, max(1e-6, EPSILON_HEADROOM * worst))

    cover = list(
        discover(relation, TaneConfig(epsilon=epsilon, measure=measure)).dependencies
    )

    missed = [
        p for p in planted
        if not any(fd.rhs == p.rhs and fd.lhs & ~p.lhs == 0 for fd in cover)
    ]
    assert not missed, f"{measure} at epsilon={epsilon:.4g} missed {missed}"
    top_k = sorted(cover, key=lambda fd: (fd.error, fd.lhs, fd.rhs))[: len(planted)]
    hits = sum(1 for fd in top_k if dependency_holds(clean, fd.lhs, fd.rhs))
    assert hits / len(planted) >= MIN_PRECISION, (measure, top_k)
