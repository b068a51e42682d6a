"""Traversal strategies: how the search walks the attribute-set lattice.

Every strategy runs under the one search loop
(:func:`repro.search.scheduler.run_steps`) as a sequence of *steps*:
the loop asks :meth:`TraversalStrategy.next_step` whether another step
follows, runs :meth:`~TraversalStrategy.step` inside the step's span
(a step also drops the partitions its walk no longer needs), and
persists :meth:`~TraversalStrategy.snapshot` at boundaries.

Three strategies ship:

* :class:`LevelwiseStrategy` — the paper's full walk; a step is one
  level (COMPUTE-DEPENDENCIES / PRUNE / GENERATE-NEXT-LEVEL, Section
  5), and it finds every minimal dependency.
* :class:`TopKStrategy` — the same walk, cut off by a monotone bound
  once the k best dependencies are provably found, returning only
  those k.  ``rank="error"`` (the default) ranks by error, then lhs
  size, then lexicographic mask; ``rank="redundancy"`` re-ranks the
  discovered set with a redundancy penalty so the k results are
  diverse rather than k near-duplicates (after "Redundancy-Driven
  Top-k Functional Dependency Discovery").
* :class:`~repro.search.dfd.DfdStrategy` — a seeded, deterministic
  DFD-style random walk (CIKM 2014) whose step is one batch of
  validity tests; wins on high-arity relations where the levelwise
  frontier explodes.

Strategies reach the engine only through the driver handed to
:meth:`~TraversalStrategy.begin` (its partitions, counters, spans and
:meth:`~repro.search.driver.SearchDriver.validity_tests`); they never
import the loop or the driver module.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import _bitset
from repro.core.lattice import LevelCandidates, generate_next_level_arrays
from repro.exceptions import ConfigurationError
from repro.model.fd import FDSet, FunctionalDependency
from repro.search.measures import ValidityOutcome, bound_outcome, bound_rejects
from repro.search.tracker import (
    CandidateTracker,
    LevelArrays,
    LevelPairs,
    PairOutcomes,
)
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.search.driver import SearchDriver

__all__ = [
    "STRATEGIES",
    "TOPK_RANK_MODES",
    "TraversalStrategy",
    "LevelwiseStrategy",
    "TopKStrategy",
    "make_strategy",
    "rank_key",
    "redundancy_rank",
]


def rank_key(fd: FunctionalDependency) -> tuple[float, int, int, int]:
    """Total order on dependencies: error, then lhs size, then masks.

    The deterministic tie-break (lhs size before lexicographic mask
    and rhs) makes top-k results reproducible and lets the cutoff
    reason about the best possible rank of an undiscovered dependency.
    """
    return (fd.error, _bitset.popcount(fd.lhs), fd.lhs, fd.rhs)


class TraversalStrategy(ABC):
    """How one search walks the lattice and shapes its result.

    The loop drives the protocol::

        strategy.begin(driver)        # or restore(driver, step, snapshot, span)
        while (attributes := strategy.next_step()) is not None:
            with <span step_span, step_attributes(step), attributes> as span:
                strategy.step(span)
            if strategy.boundary_due():
                <persist strategy.snapshot()>
        result = strategy.finalize(tracker)

    Determinism contract: given the same relation, configuration and
    validity outcomes, a strategy takes the same steps in the same
    order, and :meth:`restore` from a :meth:`snapshot` continues
    exactly as the uninterrupted run would have — results *and*
    counters.
    """

    name: str = "abstract"

    step_span: str
    """Name of the span that wraps one step."""

    fault_point: str
    """Fault point checked before each step (see
    :mod:`repro.testing.faults`)."""

    walks_levels: bool = False
    """Whether the walk goes level by level, so its partitions may be
    stored a level at a time (see :mod:`repro.search.partitions`)."""

    def fingerprint(self) -> dict[str, Any]:
        """The strategy's contribution to a checkpoint fingerprint."""
        return {"strategy": self.name}

    @abstractmethod
    def step_attributes(self, step: int) -> dict[str, int]:
        """Identity attributes of step ``step`` (0-based) — on its span
        and on the checkpoint spans of the boundary after ``step``
        completed steps."""

    @abstractmethod
    def begin(self, driver: "SearchDriver") -> None:
        """Start a fresh walk (π_∅ and the singletons are resident)."""

    @abstractmethod
    def restore(
        self, driver: "SearchDriver", step: int, snapshot: dict[str, Any], span
    ) -> None:
        """Continue from a :meth:`snapshot` taken after ``step`` steps;
        the driver's results and counters are already restored."""

    @abstractmethod
    def next_step(self) -> dict[str, Any] | None:
        """Extra open attributes of the next step's span, or ``None``
        once the walk is complete."""

    @abstractmethod
    def step(self, span) -> None:
        """Run one step, setting its close attributes on ``span``, and
        drop the partitions the walk no longer needs."""

    def boundary_due(self) -> bool:
        """Whether the state after the last step is worth persisting."""
        return True

    @abstractmethod
    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable walk state for :meth:`restore`."""

    def finalize(self, tracker: CandidateTracker) -> FDSet:
        """Shape the tracker's discovered dependencies into the result."""
        return tracker.dependencies


_EXACT = ValidityOutcome(True, True, 0.0, False, False)
_NOT_EXACT = ValidityOutcome(False, False, 0.0, False, False)


class LevelwiseStrategy(TraversalStrategy):
    """The paper's breadth-first walk with apriori generation.

    A step is one level of Section 5's loop.  Its phase ordering and
    counter accounting are pinned, results *and* counters, by the
    golden-parity suites.  At most two adjacent levels are resident:
    level ℓ−1 is reclaimed once level ℓ is pruned, before level ℓ+1 is
    generated (see :meth:`step`).  A level is a
    :class:`~repro.search.tracker.LevelArrays` whose ``cplus`` holds
    ``C+``, with masks in :func:`~repro._bitset.mask_dtype` of the
    schema, and each phase is a fixed number of numpy passes; exact
    validity needs only the two ranks of Lemma 2, so partitions are
    fetched only for the pairs an approximate run must measure.  The
    next level's products come from the surviving level's factor pairs
    (Lemma 3), and the last level a run reaches is never a product
    factor, so an exact run computes only its ranks (see
    :meth:`PartitionManager.materialize
    <repro.search.partitions.PartitionManager.materialize>`).
    ``previous`` is the previous level, with its ``C+``.
    """

    name = "levelwise"
    step_span = "level"
    fault_point = "tane.level.start"
    walks_levels = True

    def expand(self, surviving: np.ndarray) -> LevelCandidates:
        """Candidate ``(candidate, factor_x, factor_y)`` triples of the
        next level: apriori generation over the surviving sets' mask
        array."""
        return generate_next_level_arrays(surviving)

    def should_stop(self, tracker: CandidateTracker, next_level_number: int) -> bool:
        """May the search skip generating level ``next_level_number``?

        Called before expansion; ``False`` walks the full lattice.
        """
        return False

    def step_attributes(self, step: int) -> dict[str, int]:
        return {"level": step + 1}

    # ------------------------------------------------------------------
    # Walk state
    # ------------------------------------------------------------------

    def begin(self, driver: "SearchDriver") -> None:
        self._start(driver, 1, [_bitset.bit(i) for i in range(driver.num_attributes)])

    def restore(self, driver, step, snapshot, span) -> None:
        level = [int(mask) for mask in snapshot["level"]]
        previous = [int(mask) for mask in snapshot["previous_level_masks"]]
        restored = 0
        if level:
            # A complete walk (no next level) runs no step, so it needs
            # no partitions.
            driver.partitions.restore_level(previous)
            driver.partitions.restore_level(
                level, ranks_only=self._rank_only_level(driver, step + 1)
            )
            restored = len(level) + len(previous)
        span.set("masks_restored", restored)
        cplus_prev = {int(mask): int(cands) for mask, cands in snapshot["cplus_prev"]}
        self._start(driver, step + 1, level, previous, cplus_prev)

    @staticmethod
    def _max_level(driver) -> int:
        if driver.max_lhs_size is None:
            return driver.num_attributes
        return min(driver.num_attributes, driver.max_lhs_size + 1)

    def _rank_only_level(self, driver, level_number: int) -> bool:
        """No level follows the last one, so none of its partitions is
        a product factor; an exact run needs only their ranks."""
        return (
            level_number == self._max_level(driver) and driver.criteria.epsilon == 0.0
        )

    def _start(self, driver, level_number, level, previous=(0,), cplus_prev=None):
        self.driver = driver
        self.max_level = self._max_level(driver)
        self.level_number = level_number
        if cplus_prev is None:
            cplus_prev = {0: driver.full_mask}
        self.level = self._arrays_of(level)
        # A complete walk's previous level only feeds the final
        # snapshot: its partitions were not restored, nor its ranks.
        self.previous = self._arrays_of(previous, cplus_prev, ranked=bool(level))

    def _arrays_of(
        self, masks, cplus: dict[int, int] | None = None, *, ranked: bool = True
    ) -> LevelArrays:
        """A level's arrays, ranks read from its resident partitions."""
        masks = sorted(masks)
        errors = (
            self.driver.partitions.error_counts(masks) if ranked else [0] * len(masks)
        )
        if cplus is not None:
            cplus = [cplus.get(mask, 0) for mask in masks]
        return LevelArrays(masks, errors, cplus, width=self.driver.num_attributes)

    def snapshot(self) -> dict[str, Any]:
        return {
            "level": self.level.masks.tolist(),
            "previous_level_masks": self.previous.masks.tolist(),
            # JSON objects key on strings; masks round-trip via pairs.
            "cplus_prev": [
                [mask, cands] for mask, cands in self.previous.cplus_dict().items()
            ],
        }

    # ------------------------------------------------------------------
    # One level
    # ------------------------------------------------------------------

    def next_step(self) -> dict[str, Any] | None:
        if self.level and self.level_number <= self.max_level:
            return {"s_l": len(self.level)}
        return None

    def step(self, span) -> None:
        driver = self.driver
        tracker = driver.tracker
        level = self.level
        level_number = self.level_number
        driver.level_sizes.append(len(level))
        tests_before = driver.tests.value
        errors_before = driver.errors.value
        bounds_before = driver.bounds.value
        deps_before = len(tracker.dependencies)
        with driver.span("compute_dependencies") as phase:
            cplus = self._compute_dependencies(level, self.previous)
            phase.set("tests", driver.tests.value - tests_before)
            phase.set("error_computations", driver.errors.value - errors_before)
            phase.set("bound_rejections", driver.bounds.value - bounds_before)
            phase.set("dependencies_found", len(tracker.dependencies) - deps_before)
        keys_before = len(tracker.keys)
        with driver.span("prune") as phase:
            surviving = tracker.prune(level, cplus, level_number)
            keys_delta = len(tracker.keys) - keys_before
            if keys_delta:
                driver.keys_found.inc(keys_delta)
            phase.set("keys_found", keys_delta)
            phase.set("surviving", len(surviving))
        driver.pruned_level_sizes.append(len(surviving))
        # Level ℓ−1's partitions were read for the last time by the
        # validity tests; GENERATE reads only level ℓ, so ℓ−1 goes
        # before ℓ+1 is built.
        driver.partitions.reclaim(self.previous.masks)
        products_before = driver.products.value
        with driver.span("generate_next_level") as phase:
            next_level = self._generate(surviving)
            phase.set("products", driver.products.value - products_before)
            phase.set("next_size", len(next_level))
        span.set("surviving", len(surviving))
        span.set("dependencies_total", len(tracker.dependencies))
        self.previous = level
        self.level = next_level
        self.level_number += 1

    def _generate(self, surviving: np.ndarray) -> LevelArrays:
        """GENERATE-NEXT-LEVEL: the next level, or an empty one."""
        driver = self.driver
        errors: list[int] = []
        masks: list[int] = []
        if self.level_number < self.max_level and not self.should_stop(
            driver.tracker, self.level_number + 1
        ):
            masks = driver.partitions.materialize(
                self.expand(surviving),
                errors,
                ranks_only=self._rank_only_level(driver, self.level_number + 1),
            )
        return LevelArrays(masks, errors, width=driver.num_attributes)

    def _compute_dependencies(self, level: LevelArrays, previous: LevelArrays) -> np.ndarray:
        """COMPUTE-DEPENDENCIES: rhs+ sets, validity tests, recording.

        The pairs are mutually independent (see
        :meth:`CandidateTracker.testable_groups`), so the executor may
        evaluate them in any order; outcomes are applied here in level
        order, so the dependency stream and every counter are
        deterministic.
        """
        tracker = self.driver.tracker
        cplus = tracker.compute_cplus(level, previous)
        pairs = tracker.testable_groups(level, cplus)
        outcomes = self._pair_outcomes(pairs)
        tracker.apply_outcome(level, pairs.rhs, pairs.lhs, outcomes, cplus)
        return cplus

    def _pair_outcomes(self, pairs: LevelPairs) -> PairOutcomes:
        """Validity outcomes of a level's pairs, counted like the
        per-pair loop counts them.

        A pair passing the rank test is exactly valid.  With ``ε > 0``
        the others meet the g3 lower bound first, which needs only their
        ranks (:func:`~repro.search.measures.bound_rejects`); the rest
        are measured through the executor in one batch, which fetches
        through :meth:`~repro.search.partitions.PartitionManager.batch_fetch`.
        Exact runs fail them without fetching a partition.
        """
        driver = self.driver
        criteria = driver.criteria
        exact = pairs.exact
        count = exact.size
        valid = exact.copy()
        exactly_valid = exact.copy()
        errors = [0.0] * count
        measured: list[tuple[int, ValidityOutcome]] = []
        bounded = np.empty(0, dtype=np.intp)
        if criteria.epsilon > 0.0:
            failing = np.flatnonzero(~exact)
            rejected = np.broadcast_to(
                bound_rejects(pairs.lower[failing], criteria), failing.shape
            )
            bounded = failing[rejected]
            tested = failing[~rejected]
            if tested.size:
                fetch = driver.partitions.batch_fetch()
                outcomes = driver.executor.validity_tests(
                    pairs.groups(tested), fetch, criteria, driver.workspace
                )
                measured = list(zip(tested.tolist(), outcomes))
        if faults.mutation_armed("tane.validity.outcome"):
            # The fault point sees every pair's outcome, so the bound
            # rejections become outcomes too (off this path they stay
            # arrays: a run can reject tens of thousands of pairs).
            measured += [
                (position, bound_outcome(lower, criteria))
                for position, lower in zip(bounded.tolist(), pairs.lower[bounded].tolist())
            ]
            bounded = bounded[:0]
            measured = self._mutated_outcomes(pairs, measured)
        # A bound rejection fails its pair with the bound as its error.
        for position, error in zip(
            bounded.tolist(), (pairs.lower[bounded] / criteria.num_rows).tolist()
        ):
            errors[position] = error
        bounds = bounded.size
        errors_computed = 0
        for position, outcome in measured:
            valid[position] = outcome.valid
            exactly_valid[position] = outcome.exactly_valid
            errors[position] = outcome.error
            bounds += outcome.bound_rejected
            errors_computed += outcome.error_computed
        driver.tests.inc(count)
        driver.bounds.inc(bounds)
        driver.errors.inc(errors_computed)
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


TOPK_RANK_MODES = ("error", "redundancy")
"""Ranking modes of :class:`TopKStrategy`, in the order configuration
errors enumerate them."""


def redundancy_overlap(fd: FunctionalDependency, other: FunctionalDependency) -> float:
    """Redundancy of ``fd`` against one already-ranked dependency.

    Entailment-shaped pairs (same rhs, one lhs containing the other)
    are maximally redundant: the smaller lhs makes the larger one
    derivable (Armstrong augmentation), so showing both tells the user
    nothing new.  Otherwise redundancy is the Jaccard overlap of the
    attribute sets (lhs ∪ rhs), the measure the redundancy-driven
    top-k paper uses to spread the k slots across the schema.
    """
    if fd.rhs == other.rhs:
        if fd.lhs & ~other.lhs == 0 or other.lhs & ~fd.lhs == 0:
            return 1.0
    mask = fd.lhs | _bitset.bit(fd.rhs)
    other_mask = other.lhs | _bitset.bit(other.rhs)
    union = _bitset.popcount(mask | other_mask)
    if union == 0:
        return 0.0
    return _bitset.popcount(mask & other_mask) / union


def redundancy_rank(
    dependencies, k: int, *, weight: float = 1.0
) -> list[FunctionalDependency]:
    """Greedy redundancy-penalized selection of ``k`` dependencies.

    The first pick is the best under :func:`rank_key`; every later
    slot goes to the candidate minimizing ``error + weight * max
    overlap with the already-selected set`` (ties broken by
    :func:`rank_key`, so the selection is deterministic).  In exact
    mode all errors are 0.0 and the penalty alone drives selection —
    clustered near-duplicate dependencies cannot monopolize the k
    slots the way the plain error ranking lets them.
    """
    pool = sorted(dependencies, key=rank_key)
    if not pool:
        return []
    selected = [pool.pop(0)]
    while pool and len(selected) < k:
        best_index = 0
        best_score: tuple | None = None
        for index, candidate in enumerate(pool):
            penalty = max(
                redundancy_overlap(candidate, chosen) for chosen in selected
            )
            score = (candidate.error + weight * penalty, rank_key(candidate))
            if best_score is None or score < best_score:
                best_score = score
                best_index = index
        selected.append(pool.pop(best_index))
    return selected


class TopKStrategy(LevelwiseStrategy):
    """Return the k best minimal dependencies at the threshold.

    The walk is the standard levelwise search (so every emitted
    dependency is minimal and its error definitionally correct), but
    with ``rank="error"`` it stops as soon as no undiscovered
    dependency can displace the current k best.  The bound is monotone
    in the level number: a dependency first tested at level ℓ has
    ``lhs`` size ℓ-1 and error ≥ 0, so its rank is at least
    ``(0.0, ℓ-1, ...)``; every already-ranked dependency has a
    strictly smaller lhs, so once the k-th best error is 0.0 no future
    candidate can beat it.  In exact mode (``epsilon = 0``) every
    found dependency has error 0.0 and the search stops at the first
    level boundary with k results in hand; with ``epsilon > 0`` the
    cutoff fires only when the k best all hold exactly.

    ``rank="redundancy"`` replaces the final ranking with the greedy
    redundancy-penalized selection of :func:`redundancy_rank`.  The
    early cutoff is disabled there: a dependency found later (larger
    lhs) can still win a slot by being *less redundant* than an
    earlier one, so the walk must complete for the selection to be
    correct.

    The truncation happens in :meth:`finalize`; mid-search state (and
    therefore checkpoints) keeps the full discovered set, so a resumed
    top-k run continues — and ranks — exactly as an uninterrupted one.
    """

    name = "topk"

    def __init__(self, k: int, *, rank: str = "error") -> None:
        if k < 1:
            raise ConfigurationError(f"top-k requires k >= 1, got {k}")
        if rank not in TOPK_RANK_MODES:
            raise ConfigurationError(
                f"unknown topk rank mode {rank!r}; "
                f"valid choices: {', '.join(repr(m) for m in TOPK_RANK_MODES)}"
            )
        self.k = k
        self.rank = rank

    def fingerprint(self) -> dict[str, Any]:
        """Checkpoint identity: the strategy name, ``k``, and the rank
        mode (an ``error``-ranked checkpoint must never resume — or a
        cached result never satisfy — a ``redundancy``-ranked run)."""
        return {"strategy": self.name, "k": self.k, "rank": self.rank}

    def should_stop(self, tracker: CandidateTracker, next_level_number: int) -> bool:
        """Stop once no undiscovered dependency can displace the k best."""
        if self.rank != "error":
            # Redundancy ranking is not monotone in the error order;
            # only a completed walk selects correctly.
            return False
        dependencies = tracker.dependencies
        if len(dependencies) < self.k:
            return False
        ranks = sorted(rank_key(fd) for fd in dependencies)
        kth_error, kth_lhs_size = ranks[self.k - 1][:2]
        # Any undiscovered dependency ranks >= (0.0, next_level_number - 1, ...);
        # kth_lhs_size < next_level_number - 1 always holds (the k-th
        # best was found at an earlier level), so the bound reduces to
        # the k-th best holding exactly.
        return kth_error == 0.0 and kth_lhs_size < next_level_number - 1

    def finalize(self, tracker: CandidateTracker) -> FDSet:
        """Rank the discovered dependencies and keep the k best."""
        if self.rank == "redundancy":
            ranked = redundancy_rank(tracker.dependencies, self.k)
        else:
            ranked = sorted(tracker.dependencies, key=rank_key)[: self.k]
        result = FDSet()
        for fd in ranked:
            result.add(fd)
        return result


STRATEGIES = ("levelwise", "topk", "dfd")
"""The canonical strategy names, in the order configuration errors
enumerate them."""


def make_strategy(
    name: str, *, top_k: int = 0, topk_rank: str = "error", dfd_seed: int = 0
) -> TraversalStrategy:
    """Resolve a strategy name (plus its parameters) to an instance."""
    if name == "levelwise":
        return LevelwiseStrategy()
    if name == "topk":
        return TopKStrategy(top_k, rank=topk_rank)
    if name == "dfd":
        from repro.search.dfd import DfdStrategy

        return DfdStrategy(seed=dfd_seed)
    raise ConfigurationError(
        f"unknown strategy {name!r}; valid choices: {', '.join(STRATEGIES)} "
        "(parameters: top_k/topk_rank for 'topk', dfd_seed for 'dfd')"
    )
