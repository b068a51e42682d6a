"""DFD: a seeded random walk over the lattice (CIKM 2014).

Where the levelwise walk enumerates every candidate of every level,
DFD walks the lattice one node at a time, *per right-hand side*:
classify a node as dependency or non-dependency, then move toward the
interesting boundary — down from dependencies (seeking minimality), up
from non-dependencies (seeking maximality).  Classification is shared
aggressively: any superset of a minimal dependency is a dependency,
any subset of a maximal non-dependency is a non-dependency (this is
exactly the monotonicity of the error measure, which is why the
strategy refuses non-monotone measures).  On high-arity relations
whose minimal dependencies sit well below the widest levels, the walk
classifies the huge interior by inference and visits a small fraction
of the nodes levelwise must touch.

Completeness comes from the hitting-set fixpoint: a node is *unknown*
iff it is neither above a recorded minimal dependency nor below a
recorded maximal non-dependency.  Every unknown node contains a
minimal transversal of the complements of the maximal
non-dependencies, so once every such transversal (within the lhs-size
cap) is covered by a minimal dependency, no unknown node remains and
the walk is complete.  Each round therefore re-seeds from the
uncovered transversals; each walk from an uncovered seed provably
either tests an untested node, records a new minimal dependency, or
records a new maximal non-dependency, so the fixpoint is reached in
finitely many rounds.

The walks of the right-hand sides are independent, so they run
interleaved: each is its own generator with its own ``random.Random``
seeded from ``(seed, rhs)``, and a batch — one step of the search
loop — holds one request per unfinished walk, in ascending rhs order,
so the step can share product chains and measure the tests of a batch
together.  Each walk
is deterministic on its own: every choice it makes ranges over lists
built in ascending mask order from state that is itself a
deterministic function of its own verdicts.  That makes runs
reproducible across engines and partition stores, and
makes checkpoints cheap — the snapshot, saved in the same checkpoint
document as every strategy's, is just the verdict cache (keyed by
``(rhs, lhs)``), and a resume replays every walk from the top with warm
verdicts (no engine tests, same RNG draws) back to the interruption
point.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro import _bitset
from repro.exceptions import ConfigurationError
from repro.model.fd import FunctionalDependency
from repro.search.strategy import TraversalStrategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.search.driver import SearchDriver

__all__ = ["DfdStrategy", "NodeRequest", "minimal_hitting_sets"]


@dataclass(frozen=True)
class NodeRequest:
    """One candidate validity test ``lhs_mask -> rhs`` of a walk (the
    whole set is ``lhs_mask | bit(rhs)``)."""

    lhs_mask: int
    """Left-hand-side attribute mask (may be 0 for ``∅ -> A``)."""

    rhs: int
    """Dependent attribute index (never a member of ``lhs_mask``)."""


def minimal_hitting_sets(sets: list[int], cap: int) -> list[int]:
    """Minimal transversal masks of ``sets``, capped at ``cap`` bits.

    Berge's incremental construction: fold one set in at a time,
    keeping the transversals that already hit it and extending the
    rest by each of its elements (dropping extensions that became
    non-minimal or exceed the cap — transversals only grow as more
    sets are folded in, so the cap cut loses nothing reachable).
    An empty set admits no transversal; the empty family admits the
    empty transversal.
    """
    transversals = [0]
    for current in sets:
        hit = [t for t in transversals if t & current]
        kept = list(hit)
        for t in transversals:
            if t & current:
                continue
            for element in _bitset.iter_bits(current):
                candidate = t | _bitset.bit(element)
                if _bitset.popcount(candidate) > cap:
                    continue
                if any(other & ~candidate == 0 for other in kept):
                    continue
                kept.append(candidate)
        transversals = kept
    return transversals


class _RhsState:
    """Classification state of one right-hand side's walk.

    Both frontiers only ever cover more nodes, so the coverage tests
    are memoized per node: a covered node stays covered, and an
    uncovered one is checked again only against the frontier entries
    recorded since.  Those come from append-only logs; a maximal
    non-dependency dropped from ``max_nondeps`` is a subset of a later
    one, so checking against the log covers exactly what the current
    list covers.
    """

    __slots__ = (
        "rhs", "attrs_mask", "cap", "min_deps", "max_nondeps",
        "_dep_log", "_nondep_log", "_dep_checked", "_nondep_checked",
    )

    def __init__(self, rhs: int, attrs_mask: int, cap: int) -> None:
        self.rhs = rhs
        self.attrs_mask = attrs_mask
        self.cap = cap
        self.min_deps: dict[int, float] = {}
        self.max_nondeps: list[int] = []
        self._dep_log: list[int] = []
        self._nondep_log: list[int] = []
        # Per node: log entries already checked, or -1 once covered.
        self._dep_checked: dict[int, int] = {}
        self._nondep_checked: dict[int, int] = {}

    def dep_covered(self, mask: int) -> bool:
        """``mask`` is (a superset of) a recorded minimal dependency."""
        checked = self._dep_checked.get(mask, 0)
        if checked < 0:
            return True
        log = self._dep_log
        if checked < len(log):
            if any(lhs & ~mask == 0 for lhs in log[checked:]):
                self._dep_checked[mask] = -1
                return True
            self._dep_checked[mask] = len(log)
        return False

    def nondep_covered(self, mask: int) -> bool:
        """``mask`` is (a subset of) a recorded maximal non-dependency."""
        checked = self._nondep_checked.get(mask, 0)
        if checked < 0:
            return True
        log = self._nondep_log
        if checked < len(log):
            if any(mask & ~nondep == 0 for nondep in log[checked:]):
                self._nondep_checked[mask] = -1
                return True
            self._nondep_checked[mask] = len(log)
        return False

    def record_min_dep(self, mask: int, error: float) -> None:
        if mask not in self.min_deps:
            self.min_deps[mask] = error
            self._dep_log.append(mask)

    def record_max_nondep(self, mask: int) -> None:
        if self.nondep_covered(mask):
            return
        self.max_nondeps = [n for n in self.max_nondeps if n & ~mask != 0]
        self.max_nondeps.append(mask)
        self._nondep_log.append(mask)


#: Checkpoint walk format.  Checkpoints of the earlier walk, which
#: drew every rhs from one shared ``random.Random``, carry no such
#: field; replayed into per-rhs walks they would diverge, so the
#: fingerprint mismatch refuses them.
_WALK_FORMAT = "per-rhs"

# Grades of a lattice node for one rhs walk: a positive grade is a
# dependency, a negative one a non-dependency; "inferred" comes from
# the classification frontiers, "raw" from the verdict cache.
_DEP_INFERRED = 2
_DEP_RAW = 1
_UNKNOWN = 0
_NONDEP_RAW = -1
_NONDEP_INFERRED = -2


class _Walk:
    """One right-hand side's walk: its generator and the request in flight."""

    __slots__ = ("state", "steps", "pending", "outcome", "recent")

    def __init__(self, state: _RhsState, steps, window: int) -> None:
        self.state = state
        self.steps = steps
        self.pending: NodeRequest | None = None
        self.outcome = None
        # Masks of this walk's latest tests: the walk moves locally, so
        # their partitions are the likely product ancestors of its next
        # requests.
        self.recent: deque = deque(maxlen=window)

    def advance(self) -> NodeRequest | None:
        """The walk's next request (``None`` once it has finished)."""
        try:
            # The first send (of None) starts the generator.
            request = self.steps.send(self.outcome)
        except StopIteration:
            return None
        self.outcome = None
        self.pending = request
        return request


class DfdStrategy(TraversalStrategy):
    """Seeded deterministic DFD-style random walks, one per rhs.

    The strategy emits the complete minimal cover (same result set as
    :class:`~repro.search.strategy.LevelwiseStrategy`, modulo key
    emission: the walk classifies dependencies only, so ``keys`` stays
    empty) while typically testing far fewer nodes on high-arity
    relations.  Requires a monotone error measure — enforced upstream
    in configuration validation.

    A step is one batch of requests (one per unfinished walk): the lhs
    and whole-set partitions are materialized, the tests run through
    the driver, the verdicts go back to the walks, and the walks then
    propose the next batch, so a step's close record counts every
    minimal dependency its verdicts settled.
    """

    name = "dfd"
    step_span = "node_batch"
    fault_point = "search.node.start"

    #: Reclamation sweep cadence (validity tests): a sweep follows the
    #: batch that completes each further multiple.  Sweeping every
    #: batch would thrash the product-chain intermediates
    #: materialize_masks keeps resident; a small fixed interval bounds
    #: residency while letting neighboring requests reuse ancestors.
    #: Counted in tests, not batches, so it does not depend on how many
    #: walks share a batch.  Fixed ⇒ deterministic; set, with the live
    #: window, from the trade-off measured in docs/ARCHITECTURE.md.
    RECLAIM_TESTS = 64

    #: Snapshot cadence (validity tests), counted like RECLAIM_TESTS.
    #: A snapshot serializes the verdict cache, so per-batch
    #: persistence would be quadratic; boundaries fall only after the
    #: batch that completes each further multiple.
    SNAPSHOT_TESTS = 32

    #: Resident-partition hint size per unfinished walk (two masks per
    #: test: the lhs and the whole set).  With RECLAIM_TESTS it trades
    #: products for resident memory.
    _LIVE_WINDOW = 64

    def __init__(self, *, seed: int = 0) -> None:
        if seed < 0:
            raise ConfigurationError(f"dfd seed must be >= 0, got {seed}")
        self.seed = seed
        self._walks: list[_Walk] = []
        self._by_rhs: dict[int, _Walk] = {}
        self._states: list[_RhsState] = []
        self._finished = False
        self._verdicts: dict[tuple[int, int], tuple[bool, float]] = {}
        self._replay: dict[tuple[int, int], tuple[bool, float]] = {}

    def fingerprint(self) -> dict[str, Any]:
        """Checkpoint identity: walks with different seeds (or walk
        formats) test and count different nodes, so they must never
        share a resume."""
        return {"strategy": self.name, "seed": self.seed, "walk": _WALK_FORMAT}

    def step_attributes(self, step: int) -> dict[str, int]:
        return {"batch": step}

    # ------------------------------------------------------------------
    # Step protocol
    # ------------------------------------------------------------------

    def begin(self, driver: "SearchDriver") -> None:
        self.driver = driver
        self._verdicts = {}
        self._replay = {}
        self._finished = False
        self._states = []
        self._walks = []
        self._batch: list[NodeRequest] | None = None
        self._tests = driver.tests.value
        self._snapshot_due = False
        for rhs in range(driver.num_attributes):
            attrs_mask = driver.full_mask & ~_bitset.bit(rhs)
            width = _bitset.popcount(attrs_mask)
            cap = (
                width
                if driver.max_lhs_size is None
                else min(driver.max_lhs_size, width)
            )
            state = _RhsState(rhs, attrs_mask, cap)
            rng = random.Random(f"{self.seed}:{rhs}")
            self._states.append(state)
            self._walks.append(
                _Walk(state, self._walk_rhs(state, rng), self._LIVE_WINDOW)
            )
        self._by_rhs = {walk.state.rhs: walk for walk in self._walks}

    def restore(self, driver, step, snapshot, span) -> None:
        """Resume: replay every walk from the top against saved verdicts.

        The saved verdicts go into a *replay store* consumed only when
        a walk asks to test a node — never consulted by
        classification.  This matters: a walk's RNG draws range over
        "still unclassified" pools, so a verdict visible before the
        walk (re)discovers it would shrink those pools and diverge the
        replay from the original run.  Kept separate, each walk's
        classification state at every step equals the original's, its
        RNG draws repeat exactly, the saved verdicts are consumed in
        their original order without touching the engine, and only
        genuinely new nodes reach the executor — so a resumed run's
        validity-test total equals an uninterrupted one's.
        """
        self.begin(driver)
        for rhs, lhs, valid, error in snapshot.get("verdicts", ()):
            self._replay[(int(rhs), int(lhs))] = (bool(valid), float(error))

    def snapshot(self) -> dict[str, Any]:
        # Replay verdicts not yet reached were counted all the same.
        verdicts = {**self._replay, **self._verdicts}
        return {
            "verdicts": [
                [rhs, lhs, valid, error]
                for (rhs, lhs), (valid, error) in verdicts.items()
            ]
        }

    def next_step(self) -> dict[str, Any] | None:
        if self._batch is None:
            self._batch = self.next_requests()
        return {} if self._batch else None

    def step(self, span) -> None:
        """Materialize, test, and feed back one batch of requests.

        The lhs partitions come first, so each whole set then costs
        one product from its lhs; every chain step of the batch is one
        executor call.
        """
        driver = self.driver
        partitions = driver.partitions
        requests = self._batch
        wholes = [request.lhs_mask | _bitset.bit(request.rhs) for request in requests]
        partitions.materialize_masks([request.lhs_mask for request in requests])
        partitions.materialize_masks(wholes)
        groups = [
            (whole_mask, [(request.rhs, request.lhs_mask)])
            for whole_mask, request in zip(wholes, requests)
        ]
        outcomes = driver.validity_tests(groups, "search.node.outcome")
        for request, outcome in zip(requests, outcomes):
            self.observe(request, outcome)
        before, self._tests = self._tests, driver.tests.value
        # Liveness is read before the walks advance past these verdicts.
        live = (
            self.live_masks()
            if self._tests // self.RECLAIM_TESTS > before // self.RECLAIM_TESTS
            else None
        )
        self._snapshot_due = (
            self._tests // self.SNAPSHOT_TESTS > before // self.SNAPSHOT_TESTS
        )
        self._batch = self.next_requests()
        if live is not None:
            partitions.reclaim_except(live)
        span.set("tests", len(requests))
        span.set("tests_total", self._tests)
        span.set(
            "dependencies_total", sum(len(state.min_deps) for state in self._states)
        )

    def boundary_due(self) -> bool:
        return self._snapshot_due

    # ------------------------------------------------------------------
    # The walks' requests and verdicts
    # ------------------------------------------------------------------

    def next_requests(self) -> list[NodeRequest]:
        """One request per unfinished walk, in ascending rhs order."""
        if self._finished:
            return []
        requests = []
        unfinished = []
        for walk in self._walks:
            request = walk.pending if walk.pending is not None else walk.advance()
            if request is None:
                continue
            requests.append(request)
            unfinished.append(walk)
        self._walks = unfinished
        if not requests:
            self._finished = True
            self._by_rhs = {}
            tracker = self.driver.tracker
            for state in self._states:
                for lhs in sorted(state.min_deps):
                    tracker.add_dependency(
                        FunctionalDependency(lhs, state.rhs, state.min_deps[lhs])
                    )
        return requests

    def observe(self, request: NodeRequest, outcome) -> None:
        """Feed back the validity outcome of ``request``."""
        walk = self._by_rhs.get(request.rhs)
        expected = walk.pending if walk is not None else None
        if request != expected:
            raise RuntimeError(f"dfd observed {request}, expected {expected}")
        walk.pending = None
        walk.outcome = outcome
        # Record the verdict now, not when the walk resumes: a snapshot
        # taken at the batch boundary must cover every *counted* test,
        # or a resume would re-run the boundary's tests and drift the
        # validity-test total.
        self._verdicts[(request.rhs, request.lhs_mask)] = (
            bool(outcome.valid),
            float(outcome.error),
        )

    def live_masks(self) -> set[int]:
        """Masks whose partitions are worth keeping resident: each
        walk's recent tests and its request in flight (π_∅ and the
        singletons are never reclaimed)."""
        live: set[int] = set()
        for walk in self._walks:
            live.update(walk.recent)
            if walk.pending is not None:
                live.add(walk.pending.lhs_mask)
                live.add(walk.pending.lhs_mask | _bitset.bit(walk.pending.rhs))
        return live

    # ------------------------------------------------------------------
    # The walk
    # ------------------------------------------------------------------

    def _walk_rhs(self, state: _RhsState, rng: random.Random):
        seeds = [0]
        while seeds:
            for seed in seeds:
                if state.dep_covered(seed) or state.nondep_covered(seed):
                    continue
                yield from self._walk_from(seed, state, rng)
            complements = [state.attrs_mask & ~n for n in state.max_nondeps]
            transversals = minimal_hitting_sets(complements, state.cap)
            seeds = sorted(t for t in transversals if not state.dep_covered(t))
            rng.shuffle(seeds)

    def _walk_from(self, start: int, state: _RhsState, rng: random.Random):
        """One walk: descend from dependencies, ascend from non-deps.

        Every move provably makes progress — it tests an untested
        node, descends into a dependency region that must yield a new
        minimal dependency, ascends through raw non-dependencies
        toward a new maximal one, or pops the trace — so the walk
        terminates, and a walk from an uncovered seed always grows the
        verdict cache or one of the classification frontiers.

        The neighbours of a node are graded once per visit: nothing
        changes the classification state between the two move pools
        and the minimality (maximality) check that read the grades.
        """
        trace: list[int] = []
        node = start
        while True:
            grade = self._grade(state, node)
            if grade == _UNKNOWN:
                valid = yield from self._test(state, node)
            else:
                valid = grade > 0
            if valid:
                children = [
                    node & ~_bitset.bit(a) for a in _bitset.iter_bits(node)
                ]
                grades = [self._grade(state, c) for c in children]
                pool = [c for c, g in zip(children, grades) if g == _UNKNOWN] or [
                    c for c, g in zip(children, grades) if g == _DEP_RAW
                ]
                if pool:
                    trace.append(node)
                    node = pool[rng.randrange(len(pool))]
                    continue
                if not any(g > 0 for g in grades):
                    # Every immediate subset is a non-dependency: minimal.
                    _, error = self._verdicts[(state.rhs, node)]
                    state.record_min_dep(node, error)
            else:
                if _bitset.popcount(node) >= state.cap:
                    parents = []
                else:
                    parents = [
                        node | _bitset.bit(a)
                        for a in _bitset.iter_bits(state.attrs_mask & ~node)
                    ]
                grades = [self._grade(state, p) for p in parents]
                pool = [p for p, g in zip(parents, grades) if g == _UNKNOWN] or [
                    p for p, g in zip(parents, grades) if g == _NONDEP_RAW
                ]
                if pool:
                    trace.append(node)
                    node = pool[rng.randrange(len(pool))]
                    continue
                if all(g > 0 for g in grades):
                    # Every extension (within the cap) is a dependency:
                    # maximal non-dependency.
                    state.record_max_nondep(node)
            if not trace:
                return
            node = trace.pop()

    def _grade(self, state: _RhsState, node: int) -> int:
        """How ``node`` is classified for ``state``'s rhs: inferred,
        raw, or unknown (see the ``_DEP_*`` / ``_NONDEP_*`` grades)."""
        if state.dep_covered(node):
            return _DEP_INFERRED
        if state.nondep_covered(node):
            return _NONDEP_INFERRED
        raw = self._verdicts.get((state.rhs, node))
        if raw is None:
            return _UNKNOWN
        return _DEP_RAW if raw[0] else _NONDEP_RAW

    def _test(self, state: _RhsState, node: int):
        """Obtain the raw verdict for ``node -> rhs``, testing if needed."""
        key = (state.rhs, node)
        cached = self._verdicts.get(key)
        if cached is None:
            cached = self._replay.pop(key, None)
            if cached is None:
                outcome = yield NodeRequest(lhs_mask=node, rhs=state.rhs)
                cached = (bool(outcome.valid), float(outcome.error))
            self._verdicts[key] = cached
            walk = self._by_rhs[state.rhs]
            walk.recent.append(node)
            walk.recent.append(node | _bitset.bit(state.rhs))
        return cached[0]
