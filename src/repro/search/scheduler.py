"""Schedulers: how the search core orders validity tests.

The search core is a node-at-a-time engine; the paper's
level-synchronous loop is one *scheduler* for it, selected by the
traversal strategy's ``mode``:

:class:`LevelScheduler` (``mode == "level"``)
    The loop of Section 5 — COMPUTE-DEPENDENCIES / PRUNE /
    GENERATE-NEXT-LEVEL.  Its phase ordering, counter accounting,
    reclamation rule and boundary/resume protocol are byte-identical
    to the pre-refactor driver: the golden-parity suites pin results
    *and* counters.  On schemas of at most
    :data:`~repro.core.lattice.MAX_ARRAY_ATTRIBUTES` attributes a level
    is held as aligned arrays (:class:`~repro.search.tracker.LevelArrays`)
    and each phase is a fixed number of numpy passes; exact validity
    needs only the two ranks of Lemma 2, so partitions are fetched only
    for the pairs an approximate run must measure.  The last level a
    run reaches is never a product factor, so an exact run computes
    only its ranks (see :meth:`PartitionManager.materialize
    <repro.search.partitions.PartitionManager.materialize>`).

:class:`NodeEngine` (``mode == "node"``)
    The strategy proposes candidate tests one batch at a time
    (:class:`~repro.search.strategy.NodeRequest`), the engine
    materializes the partitions on demand, runs the tests through the
    same execution backend and measure stack as the level path, and
    feeds the verdicts back.  Reclamation follows the strategy's
    declared liveness; checkpoints carry the strategy's own snapshot
    (see :class:`~repro.search.hooks.NodeBoundary`).

Both schedulers borrow the driver's cached counter instruments, so a
validity test costs the same accounting no matter which loop ran it —
and cross-strategy comparisons (``tane.validity_tests`` as "nodes
visited") are meaningful.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import _bitset
from repro.core.lattice import MAX_ARRAY_ATTRIBUTES
from repro.search.hooks import LevelBoundary, NodeBoundary, SearchHooks
from repro.search.measures import ValidityOutcome
from repro.search.strategy import NodeContext
from repro.search.tracker import LevelArrays, LevelPairs, PairOutcomes
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.search.driver import SearchDriver

__all__ = ["LevelScheduler", "NodeEngine", "make_scheduler"]


def make_scheduler(driver: "SearchDriver"):
    """The scheduler matching the driver's strategy mode."""
    if getattr(driver.strategy, "mode", "level") == "node":
        return NodeEngine(driver)
    return LevelScheduler(driver)


_EXACT = ValidityOutcome(True, True, 0.0, False, False)
_NOT_EXACT = ValidityOutcome(False, False, 0.0, False, False)


class LevelScheduler:
    """The paper's level-synchronous loop (Section 5).

    A level is a list of masks with a ``C+`` dict (Python-int form) or,
    on schemas of at most ``MAX_ARRAY_ATTRIBUTES`` attributes, a
    :class:`LevelArrays` whose ``cplus`` holds ``C+``; ``cplus_prev``
    below is the previous level's ``C+`` in the same form.
    """

    def __init__(self, driver: "SearchDriver") -> None:
        self.driver = driver
        self.arrays = driver.num_attributes <= MAX_ARRAY_ATTRIBUTES
        # Only hooks that observe boundaries pay for the list/dict
        # conversion of an array level.
        self._boundary_hooks = [
            hook
            for hook in driver._hooks
            if type(hook).on_boundary is not SearchHooks.on_boundary
        ]

    def _arrays_of(self, masks, cplus: dict[int, int] | None = None) -> LevelArrays:
        """A level's arrays, ranks read from its resident partitions."""
        masks = sorted(masks)
        errors = [self.driver.partitions.error_count(mask) for mask in masks]
        if cplus is None:
            return LevelArrays(masks, errors)
        return LevelArrays(masks, errors, [cplus.get(mask, 0) for mask in masks])

    def run(self) -> None:
        """Execute the levelwise loop to completion."""
        driver = self.driver
        max_level = (
            driver.num_attributes
            if driver.max_lhs_size is None
            else min(driver.num_attributes, driver.max_lhs_size + 1)
        )
        level = driver.partitions.bootstrap()
        cplus_prev = {0: driver.full_mask}
        previous_level_masks: list[int] = [0]
        level_number = 1
        for hook in driver._hooks:
            resumed = hook.resume_state(driver)
            if resumed is not None:
                level = resumed.level
                cplus_prev = resumed.cplus_prev
                previous_level_masks = resumed.previous_level_masks
                level_number = resumed.level_number
                break
        if self.arrays:
            level = self._arrays_of(level)
            cplus_prev = self._arrays_of(previous_level_masks, cplus_prev)
        while level and level_number <= max_level:
            faults.check("tane.level.start")
            driver._level_sizes.append(len(level))
            with driver._span(
                "level", level=level_number, s_l=len(level)
            ) as level_span:
                tests_before = driver._c_tests.value
                errors_before = driver._c_errors.value
                bounds_before = driver._c_bounds.value
                deps_before = len(driver.tracker.dependencies)
                with driver._span("compute_dependencies") as phase:
                    cplus = self._compute_dependencies(level, cplus_prev)
                    phase.set("tests", driver._c_tests.value - tests_before)
                    phase.set(
                        "error_computations", driver._c_errors.value - errors_before
                    )
                    phase.set(
                        "bound_rejections", driver._c_bounds.value - bounds_before
                    )
                    phase.set(
                        "dependencies_found",
                        len(driver.tracker.dependencies) - deps_before,
                    )
                keys_before = len(driver.tracker.keys)
                with driver._span("prune") as phase:
                    surviving = driver.tracker.prune(
                        level, cplus, level_number, driver.partitions.is_superkey
                    )
                    keys_delta = len(driver.tracker.keys) - keys_before
                    if keys_delta:
                        driver._c_keys.inc(keys_delta)
                    phase.set("keys_found", keys_delta)
                    phase.set("surviving", len(surviving))
                driver._pruned_level_sizes.append(len(surviving))
                products_before = driver._c_products.value
                with driver._span("generate_next_level") as phase:
                    next_level = self._generate(surviving, level_number, max_level)
                    phase.set("products", driver._c_products.value - products_before)
                    phase.set("next_size", len(next_level))
                level_span.set("surviving", len(surviving))
                level_span.set("dependencies_total", len(driver.tracker.dependencies))
            driver.partitions.reclaim(previous_level_masks)
            if self.arrays:
                previous_level_masks = level.masks.tolist()
                cplus_prev = level
            else:
                previous_level_masks = level
                cplus_prev = cplus
            level = next_level
            level_number += 1
            self._notify_boundary(
                level_number, level, previous_level_masks, cplus_prev, complete=False
            )
        self._notify_boundary(
            level_number, [], previous_level_masks, cplus_prev, complete=True
        )

    def _generate(self, surviving, level_number: int, max_level: int):
        """GENERATE-NEXT-LEVEL: the next level, or an empty one."""
        driver = self.driver
        if level_number >= max_level or driver.strategy.should_stop(
            driver.tracker, level_number + 1
        ):
            return LevelArrays([], []) if self.arrays else []
        if not self.arrays:
            return driver.partitions.materialize(driver.strategy.expand(surviving))
        triples = driver.strategy.expand(surviving.tolist())
        errors: list[int] = []
        # No level follows the last one, so none of its partitions is a
        # product factor; an exact run needs only their ranks.
        ranks_only = level_number + 1 == max_level and driver.criteria.epsilon == 0.0
        masks = driver.partitions.materialize(triples, errors, ranks_only=ranks_only)
        return LevelArrays(masks, errors)

    def _notify_boundary(
        self,
        level_number: int,
        level,
        previous_level_masks: list[int],
        cplus_prev,
        *,
        complete: bool,
    ) -> None:
        driver = self.driver
        if not self._boundary_hooks:
            return
        if self.arrays:
            if isinstance(level, LevelArrays):
                level = level.masks.tolist()
            cplus_prev = cplus_prev.cplus_dict()
        boundary = LevelBoundary(
            level_number=level_number,
            level=level,
            previous_level_masks=previous_level_masks,
            cplus_prev=cplus_prev,
            complete=complete,
        )
        for hook in self._boundary_hooks:
            hook.on_boundary(driver, boundary)

    def _compute_dependencies(self, level, cplus_prev):
        """COMPUTE-DEPENDENCIES: rhs+ sets, validity tests, recording.

        The groups are mutually independent (see
        :meth:`CandidateTracker.testable_groups`), so the executor may
        evaluate them in any order; outcomes are applied here in level
        order, so the dependency stream and every counter are
        deterministic.
        """
        driver = self.driver
        if self.arrays:
            tracker = driver.tracker
            cplus = tracker.compute_cplus(level, cplus_prev)
            pairs = tracker.testable_groups(level, cplus)
            outcomes = self._pair_outcomes(pairs)
            tracker.apply_outcome(level, pairs.rhs, pairs.lhs, outcomes, cplus)
            return cplus
        cplus = driver.tracker.compute_cplus(level, cplus_prev)
        groups = driver.tracker.testable_groups(level, cplus)
        outcomes = driver.executor.validity_tests(
            groups, driver.partitions.get, driver.criteria, driver.workspace
        )
        position = 0
        for mask, pairs in groups:
            for rhs_index, lhs_mask in pairs:
                # Silent-corruption fault point: repro.verify's own tests
                # arm it to prove the harness catches a lying engine.
                outcome = faults.mutate("tane.validity.outcome", outcomes[position])
                position += 1
                driver._c_tests.inc()
                if outcome.bound_rejected:
                    driver._c_bounds.inc()
                if outcome.error_computed:
                    driver._c_errors.inc()
                driver.tracker.apply_outcome(mask, rhs_index, lhs_mask, outcome, cplus)
        return cplus

    def _pair_outcomes(self, pairs: LevelPairs) -> PairOutcomes:
        """Validity outcomes of a level's pairs, counted like the
        per-pair loop counts them.

        A pair passing the rank test is exactly valid.  With ``ε > 0``
        the others are measured through the executor in one batch;
        exact runs fail them without fetching a partition.
        """
        driver = self.driver
        count = pairs.exact.size
        valid = pairs.exact.copy()
        exactly_valid = pairs.exact.copy()
        errors = [0.0] * count
        measured: list[tuple[int, ValidityOutcome]] = []
        if driver.criteria.epsilon > 0.0:
            failing = np.flatnonzero(~pairs.exact)
            if failing.size:
                outcomes = driver.executor.validity_tests(
                    pairs.groups(failing),
                    driver.partitions.get,
                    driver.criteria,
                    driver.workspace,
                )
                measured = list(zip(failing.tolist(), outcomes))
        if faults.mutation_armed("tane.validity.outcome"):
            measured = self._mutated_outcomes(pairs, measured)
        bounds = errors_computed = 0
        for position, outcome in measured:
            valid[position] = outcome.valid
            exactly_valid[position] = outcome.exactly_valid
            errors[position] = outcome.error
            bounds += outcome.bound_rejected
            errors_computed += outcome.error_computed
        driver._c_tests.inc(count)
        driver._c_bounds.inc(bounds)
        driver._c_errors.inc(errors_computed)
        return PairOutcomes(valid, exactly_valid, errors)

    @staticmethod
    def _mutated_outcomes(
        pairs: LevelPairs, measured: list[tuple[int, ValidityOutcome]]
    ) -> list[tuple[int, ValidityOutcome]]:
        """Every pair's outcome passed through the silent-corruption
        fault point, in test order — only while a test arms it."""
        by_position = dict(measured)
        return [
            (
                position,
                # Silent-corruption fault point: repro.verify's own tests
                # arm it to prove the harness catches a lying engine.
                faults.mutate(
                    "tane.validity.outcome",
                    by_position.get(position, _EXACT if exact else _NOT_EXACT),
                ),
            )
            for position, exact in enumerate(pairs.exact.tolist())
        ]


class NodeEngine:
    """Node-at-a-time scheduling for ``mode == "node"`` strategies."""

    #: Reclamation sweep cadence (validity tests): a sweep follows the
    #: batch that completes each further multiple.  Sweeping every
    #: batch would thrash the product-chain intermediates
    #: materialize_masks keeps resident; a small fixed interval bounds
    #: residency while letting neighboring requests reuse ancestors.
    #: Counted in tests, not batches, so it does not depend on how many
    #: walks share a batch.  Fixed ⇒ deterministic; set, with the dfd
    #: live window, from the trade-off measured in docs/ARCHITECTURE.md.
    RECLAIM_TESTS = 64

    #: Strategy-snapshot cadence (validity tests), counted like
    #: RECLAIM_TESTS.  A snapshot serializes the strategy's visited set,
    #: so per-batch persistence would be quadratic; boundaries between
    #: snapshots carry no state.
    SNAPSHOT_TESTS = 32

    def __init__(self, driver: "SearchDriver") -> None:
        self.driver = driver
        # Only hooks that observe boundaries pay for the snapshot.
        self._boundary_hooks = [
            hook
            for hook in driver._hooks
            if type(hook).on_node_boundary is not SearchHooks.on_node_boundary
        ]

    def run(self) -> None:
        """Drive the strategy's walk to completion."""
        driver = self.driver
        strategy = driver.strategy
        partitions = driver.partitions
        partitions.bootstrap()
        context = NodeContext(
            num_attributes=driver.num_attributes,
            full_mask=driver.full_mask,
            max_lhs_size=driver.max_lhs_size,
            tracker=driver.tracker,
        )
        batch_number = 0
        resumed = None
        for hook in driver._hooks:
            resumed = hook.resume_node_state(driver)
            if resumed is not None:
                break
        if resumed is not None:
            strategy.restore(context, resumed.state)
            batch_number = resumed.batch_number
        else:
            strategy.begin(context)
        tests = driver._c_tests.value
        while True:
            requests = strategy.next_requests()
            if not requests:
                break
            faults.check("search.node.start")
            with driver._span("node_batch", batch=batch_number) as span:
                self._run_batch(requests)
                span.set("tests", len(requests))
                span.set("tests_total", driver._c_tests.value)
                span.set(
                    "dependencies_total", len(driver.tracker.dependencies)
                )
            batch_number += 1
            before, tests = tests, driver._c_tests.value
            if tests // self.RECLAIM_TESTS > before // self.RECLAIM_TESTS:
                partitions.reclaim_except(strategy.live_masks())
            if tests // self.SNAPSHOT_TESTS > before // self.SNAPSHOT_TESTS:
                self._notify_boundary(batch_number, strategy, complete=False)
        self._notify_boundary(batch_number, strategy, complete=True)

    def _run_batch(self, requests) -> None:
        """Materialize, test, and feed back one batch of requests.

        The lhs partitions come first, so each whole set then costs
        one product from its lhs; every chain step of the batch is one
        executor call.
        """
        driver = self.driver
        partitions = driver.partitions
        wholes = [request.lhs_mask | _bitset.bit(request.rhs) for request in requests]
        partitions.materialize_masks([request.lhs_mask for request in requests])
        partitions.materialize_masks(wholes)
        groups = [
            (whole_mask, [(request.rhs, request.lhs_mask)])
            for whole_mask, request in zip(wholes, requests)
        ]
        outcomes = driver.executor.validity_tests(
            groups, partitions.get, driver.criteria, driver.workspace
        )
        for request, outcome in zip(requests, outcomes):
            # Silent-corruption fault point: the verify layer arms it to
            # prove a corrupted walk classification is caught.
            outcome = faults.mutate("search.node.outcome", outcome)
            driver._c_tests.inc()
            if outcome.bound_rejected:
                driver._c_bounds.inc()
            if outcome.error_computed:
                driver._c_errors.inc()
            driver.strategy.observe(request, outcome)

    def _notify_boundary(self, batch_number: int, strategy, *, complete: bool) -> None:
        if not self._boundary_hooks:
            return
        boundary = NodeBoundary(
            batch_number=batch_number,
            state=strategy.snapshot(),
            complete=complete,
        )
        for hook in self._boundary_hooks:
            hook.on_node_boundary(self.driver, boundary)
