"""Observability plugins for the search driver.

:class:`TracingHooks` is the bridge between the search core's span
seam (:meth:`repro.search.hooks.SearchHooks.span`) and the
module-level tracer of :mod:`repro.obs.trace`: every driver phase span
is forwarded to :func:`repro.obs.trace.span`, which returns the shared
no-op span unless a tracer is activated — so the hook can be attached
unconditionally at zero cost to untraced runs, and traced runs produce
exactly the span tree previous releases emitted inline.

:class:`ProgressHooks` is the same seam turned into a *live* feed: it
translates the driver's phase spans and level boundaries into typed
:class:`~repro.obs.events.ProgressEvent` records on a
:class:`~repro.obs.events.ProgressEmitter`, and keeps an
:class:`~repro.obs.events.EtaEstimator` fed with the level structure —
exact candidate counts from the span attributes, and each upcoming
level's row-work (``Σ‖π̂‖``, measured at the boundary where its
partitions are already materialized, so the measurement is a few
``stripped_size`` reads, not a recomputation).

Both modules depend on :mod:`repro.search`; the search core never
imports :mod:`repro.obs` (enforced by ``make layers``).
"""

from __future__ import annotations

from repro.exceptions import PartitionMissingError
from repro.obs import trace as obs
from repro.obs.events import EtaEstimator, ProgressEmitter
from repro.obs.profile import SamplingProfiler
from repro.search.hooks import NULL_SPAN, LevelBoundary, SearchHooks

__all__ = ["TracingHooks", "ProgressHooks", "ProfileHooks"]


class TracingHooks(SearchHooks):
    """Forward driver phase spans into the active tracer (if any)."""

    def span(self, name: str, **attributes):
        return obs.span(name, **attributes)


_PHASES = frozenset({"compute_dependencies", "prune", "generate_next_level"})


class ProgressHooks(SearchHooks):
    """Translate driver phases into live progress events + ETA.

    One instance observes one run.  The driver's ``level`` span opens
    → ``level_start`` (with the exact candidate count, cumulative
    tested/remaining set totals, and the current ETA); each phase span
    maps to ``phase_start`` / ``phase_end`` (the latter carrying the
    phase's counters and a refreshed ETA); the ``level`` span closing
    emits ``level_end``.  ``on_boundary`` measures the next level's
    row-work for the estimator and publishes partition-cache totals as
    ``cache`` events when they move.
    """

    def __init__(
        self,
        emitter: ProgressEmitter,
        *,
        num_attributes: int,
        num_rows: int,
        estimator: EtaEstimator | None = None,
    ) -> None:
        self.emitter = emitter
        self.estimator = (
            estimator if estimator is not None else EtaEstimator(num_attributes)
        )
        self._num_rows = num_rows
        self._num_attributes = num_attributes
        self._level = 0
        self._tested_sets = 0
        self._next_work: int | None = None
        self._cache_hits = 0
        self._cache_misses = 0

    # -- SearchHooks interface -------------------------------------------

    def span(self, name: str, **attributes):
        if name == "level":
            self._level = int(attributes.get("level", self._level + 1))
            return _LevelEventSpan(self)
        if name in _PHASES:
            return _PhaseEventSpan(self, name)
        return NULL_SPAN

    def on_boundary(self, driver, boundary: LevelBoundary) -> None:
        if boundary.level:
            # The next level's partitions were just materialized;
            # summing their stripped sizes is the exact row-work the
            # estimator's cost model runs on.  An exact run's last
            # level is computed rank-only and never stored: the
            # estimator then falls back to its row-count bound.
            work = 0
            try:
                for mask in boundary.level:
                    work += driver.partitions.get(mask).stripped_size
            except PartitionMissingError:
                work = None
            self._next_work = work
        self._publish_cache(driver)

    def on_node_boundary(self, driver, boundary) -> None:
        # Node-mode walks have no level structure: no candidate total,
        # no row-work measurement, no ETA.  The live feed degrades to a
        # monotone "nodes" tick (tests run, dependencies found) plus
        # the usual cache totals.
        self.emitter.emit(
            "nodes",
            batch=boundary.batch_number,
            tests=int(driver.metrics.counter("tane.validity_tests").value),
            dependencies=len(driver.tracker.dependencies),
        )
        self._publish_cache(driver)

    # -- event assembly --------------------------------------------------

    def _publish_cache(self, driver) -> None:
        hits = driver.metrics.counter("cache.partition_hits").value
        misses = driver.metrics.counter("cache.partition_misses").value
        if (hits, misses) == (self._cache_hits, self._cache_misses):
            return
        self._cache_hits = hits
        self._cache_misses = misses
        self.emitter.emit("cache", hits=hits, misses=misses)

    def _level_started(self, size: int) -> None:
        work = self._next_work
        if work is None:
            # Level 1: singleton partitions are at most one stripped
            # class per column — bounded by rows per attribute.
            work = self._num_rows * max(size, 1)
        self._next_work = None
        self.estimator.level_started(self._level, size, work, self.emitter.elapsed())
        self.emitter.emit(
            "level_start",
            level=self._level,
            size=size,
            tested=self._tested_sets,
            remaining=self.estimator.projected_remaining_sets(),
            eta_seconds=self.estimator.eta_seconds,
        )

    def _level_finished(self, seconds: float, attributes: dict) -> None:
        size = int(attributes.get("s_l", 0))
        surviving = int(attributes.get("surviving", 0))
        self.estimator.level_finished(
            self._level, seconds, size, surviving, self.emitter.elapsed()
        )
        self._tested_sets += size
        self.emitter.emit(
            "level_end",
            level=self._level,
            seconds=seconds,
            surviving=surviving,
            dependencies=int(attributes.get("dependencies_total", 0)),
        )


class ProfileHooks(SearchHooks):
    """Driver plugin feeding level boundaries to a sampling profiler.

    The only piece of profiling that needs the search structure: at
    every boundary the just-completed level's tracemalloc high-water
    is recorded and the peak reset, so memory attribution has the same
    per-level shape as the profiler's timing tables.
    """

    def __init__(self, profiler: SamplingProfiler) -> None:
        self.profiler = profiler
        self._recorded: set[int] = set()

    def on_boundary(self, driver, boundary: LevelBoundary) -> None:
        # ``level_number`` is the level about to run; the completed one
        # precedes it.  The final boundary repeats the last level's
        # number, hence the recorded-set guard.
        completed = boundary.level_number - 1
        if completed >= 1 and completed not in self._recorded:
            self._recorded.add(completed)
            self.profiler.note_level_complete(completed)


class _LevelEventSpan:
    """Span adapter for the driver's ``level`` span.

    ``level_start`` is deferred to the first ``set("s_l", ...)`` — the
    driver publishes the candidate count immediately after entering
    the span, and the event is worthless without it.
    """

    __slots__ = ("_hooks", "_attributes", "_started", "_opened")

    def __init__(self, hooks: ProgressHooks) -> None:
        self._hooks = hooks
        self._attributes: dict = {}
        self._started = 0.0
        self._opened = False

    def __enter__(self) -> "_LevelEventSpan":
        self._started = self._hooks.emitter.elapsed()
        return self

    def set(self, key: str, value) -> None:
        self._attributes[key] = value
        if key == "s_l" and not self._opened:
            self._opened = True
            self._hooks._level_started(int(value))

    def __exit__(self, *exc_info) -> bool:
        self._hooks._level_finished(
            self._hooks.emitter.elapsed() - self._started, self._attributes
        )
        return False


class _PhaseEventSpan:
    """Span adapter for one driver phase inside a level."""

    __slots__ = ("_hooks", "_name", "_attributes", "_started")

    def __init__(self, hooks: ProgressHooks, name: str) -> None:
        self._hooks = hooks
        self._name = name
        self._attributes: dict = {}
        self._started = 0.0

    def __enter__(self) -> "_PhaseEventSpan":
        self._started = self._hooks.emitter.elapsed()
        self._hooks.emitter.emit(
            "phase_start", level=self._hooks._level, phase=self._name
        )
        return self

    def set(self, key: str, value) -> None:
        self._attributes[key] = value

    def __exit__(self, *exc_info) -> bool:
        elapsed = self._hooks.emitter.elapsed()
        self._hooks.estimator.tick(elapsed)
        self._hooks.emitter.emit(
            "phase_end",
            level=self._hooks._level,
            phase=self._name,
            seconds=elapsed - self._started,
            eta_seconds=self._hooks.estimator.eta_seconds,
            **self._attributes,
        )
        return False
