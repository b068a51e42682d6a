"""The layered search core of the discovery algorithms.

This package decomposes the levelwise dependency search (Sections 3-5
of the paper) into narrow, independently testable components that a
:class:`~repro.search.driver.SearchDriver` composes:

* :mod:`repro.search.measures` — the validity test as a pure function
  plus the :class:`Measure` protocol unifying the error measures:
  ``g3``/``g1``/``g2`` and the comparative-study score measures
  ``pdep``/``tau``/``mu_plus``/``fi``/``rfi``, with the closed-form
  permutation-model bias behind ``rfi``.
* :mod:`repro.search.execution` — the minimal execution backend
  contract (partition products and validity tests of one level) and
  its in-process implementation, :class:`SerialExecution`.
* :mod:`repro.search.strategy` — the :class:`TraversalStrategy` seam:
  classic levelwise traversal and the :class:`TopKStrategy` that cuts
  the search off once the k best dependencies are provably found.
* :mod:`repro.search.tracker` — the :class:`CandidateTracker` owning
  rhs+ candidate maintenance (Section 4), dependency recording, and
  the pruning rules (Lemmas 4-5, key pruning).
* :mod:`repro.search.partitions` — the :class:`PartitionManager`
  owning partition lifecycle: bootstrap, product scheduling,
  per-level reclamation, and checkpoint-restore recomputation.
* :mod:`repro.search.hooks` — the :class:`SearchHooks` plugin seam
  through which tracing and checkpointing attach from the outside.
* :mod:`repro.search.driver` — the :class:`SearchDriver` loop itself.

Layering rule (enforced by ``make layers``): this package never
imports :mod:`repro.obs` or :mod:`repro.core.checkpoint` — those
layers plug *into* the search core via :class:`SearchHooks`, never the
reverse.
"""

from repro.search.driver import SearchDriver
from repro.search.execution import SerialExecution
from repro.search.hooks import LevelBoundary, ResumePoint, SearchHooks
from repro.search.measures import (
    MEASURES,
    RHS_STATS_MEASURES,
    SCORE_MEASURES,
    AttributeStats,
    Measure,
    ValidityCriteria,
    ValidityOutcome,
    attribute_stats,
    evaluate_validity,
    relation_rhs_stats,
)
from repro.search.partitions import PartitionManager
from repro.search.strategy import (
    STRATEGIES,
    LevelwiseStrategy,
    TopKStrategy,
    TraversalStrategy,
    make_strategy,
)
from repro.search.tracker import CandidateTracker

__all__ = [
    "AttributeStats",
    "CandidateTracker",
    "LevelBoundary",
    "LevelwiseStrategy",
    "MEASURES",
    "Measure",
    "PartitionManager",
    "RHS_STATS_MEASURES",
    "ResumePoint",
    "SCORE_MEASURES",
    "STRATEGIES",
    "SearchDriver",
    "SearchHooks",
    "SerialExecution",
    "TopKStrategy",
    "TraversalStrategy",
    "ValidityCriteria",
    "ValidityOutcome",
    "attribute_stats",
    "evaluate_validity",
    "make_strategy",
    "relation_rhs_stats",
]
