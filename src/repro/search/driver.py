"""The search driver: one run over a relation's attribute-set lattice.

:class:`SearchDriver` owns the run's *state* — relation facts, the
candidate tracker, partition manager, execution backend, validity
criteria, metrics instruments, hooks — but none of the control flow:
the loop lives in a scheduler (:mod:`repro.search.scheduler`) selected
by the traversal strategy's mode.  Level strategies run under the
compatibility :class:`~repro.search.scheduler.LevelScheduler` (the
paper's loop of Section 5, bit-identical to the pre-refactor driver);
node strategies run under the
:class:`~repro.search.scheduler.NodeEngine`.

The driver's own responsibilities are the run invariants shared by
every scheduler: deterministic counter accounting (the cached
instruments below), the failure protocol (``on_failure`` hooks fire
while the exception unwinds), the restore surface resume-capable hooks
use, and handing the tracker to
:meth:`~repro.search.strategy.TraversalStrategy.finalize` for result
shaping.
"""

from __future__ import annotations

from repro.model.fd import FunctionalDependency
from repro.model.relation import Relation
from repro.search.hooks import resolve_span_provider
from repro.search.instruments import SimpleMetrics
from repro.search.measures import ValidityCriteria
from repro.search.partitions import PartitionManager
from repro.search.scheduler import make_scheduler
from repro.search.strategy import TraversalStrategy
from repro.search.tracker import CandidateTracker

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
        self._span = resolve_span_provider(self._hooks)
        # Instruments are cached so the hot loops pay one attribute
        # increment per event.
        self._c_tests = self.metrics.counter("tane.validity_tests")
        self._c_errors = self.metrics.counter("tane.error_computations")
        self._c_bounds = self.metrics.counter("tane.g3_bound_rejections")
        self._c_keys = self.metrics.counter("tane.keys_found")
        self._c_products = self.metrics.counter("tane.partition_products")
        self._level_sizes = self.metrics.series("tane.level_sizes")
        self._pruned_level_sizes = self.metrics.series("tane.pruned_level_sizes")

    # ------------------------------------------------------------------
    # Restore surface for resume-capable hooks
    # ------------------------------------------------------------------

    def restore_results(self, dependencies, keys) -> None:
        """Re-record saved ``(lhs, rhs, error)`` triples and key masks."""
        for lhs, rhs, error in dependencies:
            self.tracker.add_dependency(FunctionalDependency(lhs, rhs, error))
        self.tracker.keys.extend(keys)

    def restore_metrics(self, counters: dict, series: dict) -> None:
        """Re-apply saved counter values and per-level series."""
        for name, value in counters.items():
            self.metrics.counter(name).inc(value)
        for name, values in series.items():
            self.metrics.series(name).extend(values)

    # ------------------------------------------------------------------

    def run(self):
        """Execute the search; return the strategy-shaped dependencies.

        The tracker keeps the raw discovered state (``keys`` and the
        full dependency set) for the composition root's result
        assembly; the return value is :meth:`TraversalStrategy.finalize`
        applied to it.
        """
        try:
            make_scheduler(self).run()
        except BaseException:
            for hook in self._hooks:
                hook.on_failure(self)
            raise
        return self.strategy.finalize(self.tracker)
