"""The search driver: one run over a relation's attribute-set lattice.

:class:`SearchDriver` owns the run's *state* — relation facts, the
candidate tracker, partition manager, execution backend, validity
criteria, metrics instruments, hooks — and hands it to the one search
loop (:func:`repro.search.scheduler.run_steps`), under which every
traversal strategy runs its steps.

The driver's own responsibilities are the run invariants shared by
every strategy: deterministic counter accounting (the cached
instruments below, and :meth:`SearchDriver.validity_tests`, so a
validity test costs the same accounting whichever strategy asked for
it and ``tane.validity_tests`` compares across strategies as "nodes
visited"), the failure protocol (``on_failure`` hooks fire while the
exception unwinds), and handing the tracker to
:meth:`~repro.search.strategy.TraversalStrategy.finalize` for result
shaping.
"""

from __future__ import annotations

from repro.model.relation import Relation
from repro.search.hooks import resolve_span_provider
from repro.search.instruments import SimpleMetrics
from repro.search.measures import ValidityCriteria, ValidityOutcome
from repro.search.partitions import PartitionManager
from repro.search.scheduler import run_steps
from repro.search.strategy import TraversalStrategy
from repro.search.tracker import CandidateTracker
from repro.testing import faults

__all__ = ["SearchDriver"]


class SearchDriver:
    """One search over a relation's attribute-set lattice."""

    def __init__(
        self,
        relation: Relation,
        *,
        tracker: CandidateTracker,
        strategy: TraversalStrategy,
        partitions: PartitionManager,
        executor,
        criteria: ValidityCriteria,
        workspace,
        metrics=None,
        hooks=(),
        max_lhs_size: int | None = None,
    ) -> None:
        self.relation = relation
        self.num_attributes = relation.num_attributes
        self.full_mask = relation.schema.full_mask()
        self.tracker = tracker
        self.strategy = strategy
        self.partitions = partitions
        self.executor = executor
        self.criteria = criteria
        self.workspace = workspace
        self.metrics = metrics if metrics is not None else SimpleMetrics()
        self.max_lhs_size = max_lhs_size
        self._hooks = tuple(hooks)
        self.span = resolve_span_provider(self._hooks)
        # Instruments are cached so the hot loops pay one attribute
        # increment per event.
        self.tests = self.metrics.counter("tane.validity_tests")
        self.errors = self.metrics.counter("tane.error_computations")
        self.bounds = self.metrics.counter("tane.g3_bound_rejections")
        self.keys_found = self.metrics.counter("tane.keys_found")
        self.products = self.metrics.counter("tane.partition_products")
        self.level_sizes = self.metrics.series("tane.level_sizes")
        self.pruned_level_sizes = self.metrics.series("tane.pruned_level_sizes")

    def validity_tests(self, groups, fault_point: str) -> list[ValidityOutcome]:
        """Outcomes of ``groups`` (``(whole_mask, [(rhs, lhs), ...])``)
        through the executor, in order, each passed through the
        ``fault_point`` silent-corruption point and counted."""
        outcomes = self.executor.validity_tests(
            groups, self.partitions.get, self.criteria, self.workspace
        )
        for position, outcome in enumerate(outcomes):
            # Silent-corruption fault point: repro.verify's own tests
            # arm it to prove the harness catches a lying engine.
            outcome = outcomes[position] = faults.mutate(fault_point, outcome)
            self.tests.inc()
            if outcome.bound_rejected:
                self.bounds.inc()
            if outcome.error_computed:
                self.errors.inc()
        return outcomes

    def run(self):
        """Execute the search; return the strategy-shaped dependencies.

        The tracker keeps the raw discovered state (``keys`` and the
        full dependency set) for the composition root's result
        assembly; the return value is :meth:`TraversalStrategy.finalize`
        applied to it.
        """
        try:
            run_steps(self)
        except BaseException:
            for hook in self._hooks:
                hook.on_failure(self)
            raise
        return self.strategy.finalize(self.tracker)
