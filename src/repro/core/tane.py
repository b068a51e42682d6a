"""The TANE algorithm (Section 5 of the paper), as a composition root.

The levelwise loop::

    L1 := singletons; C+(∅) := R
    while L_ℓ nonempty:
        COMPUTE-DEPENDENCIES(L_ℓ)
        PRUNE(L_ℓ)
        L_{ℓ+1} := GENERATE-NEXT-LEVEL(L_ℓ)

lives in the :mod:`repro.search` package as a
:class:`~repro.search.driver.SearchDriver` orchestrating narrow
components — candidate tracking, partition lifecycle, traversal
strategy, execution backend, plugin hooks.  This module is the
*composition root*: :class:`TaneConfig` names a configuration, and
:func:`discover` assembles the matching components (store, executor,
engine, strategy, tracing and checkpointing plugins), runs the driver,
and shapes the result.

Configuration flags expose the paper's variants for the ablation
benchmarks:

* ``store="disk"`` reproduces the scalable TANE (partitions spilled to
  disk); ``store="memory"`` is TANE/MEM.
* ``use_rule8=False`` removes line 8 of COMPUTE-DEPENDENCIES,
  reverting ``C+`` to the plain rhs candidates ``C`` ("the algorithm
  would work correctly, but pruning might be less effective").
* ``use_key_pruning=False`` disables the key pruning rule.
* ``use_g3_bounds=False`` disables the O(1) error-bound short-circuit
  of the extended version.
* ``executor`` injects an execution backend; the default
  :class:`~repro.search.execution.SerialExecution` runs a level's
  partition products and validity tests in-process with the batched
  kernel (:func:`repro.partition.vectorized.batched_products`) — there
  is no kernel knob.  On a tall relation that kernel runs each call's
  left-factor groups on a thread pool of one thread per CPU in the
  process's affinity mask, with byte-identical results.
* ``strategy="topk"`` with ``top_k=N`` returns only the N best
  dependencies by error (see
  :class:`~repro.search.strategy.TopKStrategy`), cutting the walk off
  once no undiscovered dependency can displace them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.core.checkpoint import CheckpointManager
from repro.core.checkpoint_hooks import CheckpointHooks
from repro.core.results import DiscoveryResult, SearchStatistics
from repro.exceptions import ConfigurationError
from repro.fingerprint import partition_cache_key, search_fingerprint
from repro.model.relation import Relation
from repro.obs import trace as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SamplingProfiler
from repro.obs.search_hooks import TracingHooks
from repro.obs.trace import Tracer
from repro.partition.cache import PartitionCache, shared_cache
from repro.partition.pure import PurePartition
from repro.partition.store import PartitionStore, make_store
from repro.partition.vectorized import CsrPartition, PartitionWorkspace
from repro.search.driver import SearchDriver
from repro.search.execution import SerialExecution
from repro.search.measures import (
    MEASURES,
    RHS_STATS_MEASURES,
    ValidityCriteria,
    relation_rhs_stats,
)
from repro.search.partitions import PartitionManager
from repro.search.strategy import STRATEGIES, TOPK_RANK_MODES, make_strategy
from repro.search.tracker import CandidateTracker

_MEASURES = tuple(MEASURES)
_ENGINES = ("vectorized", "pure")
_STRATEGIES = STRATEGIES
_TOPK_RANK_MODES = TOPK_RANK_MODES
# Measures whose error can rise as the lhs grows; dfd's classification
# shares verdicts along the subset order, which is only sound for
# monotone measures (see the TopKStrategy/DfdStrategy docs).  Public:
# the verify layer consults it to skip dfd comparisons on these.
NON_MONOTONE_MEASURES = ("mu_plus", "rfi")
_NON_MONOTONE_MEASURES = NON_MONOTONE_MEASURES
_PARTITION_CACHES = ("off", "shared")

# Sentinel distinguishing "argument not supplied" from an explicit
# value in the convenience wrappers, so they never clobber fields the
# caller configured on an explicitly passed TaneConfig.
_UNSET: Any = object()

__all__ = [
    "NON_MONOTONE_MEASURES",
    "TaneConfig",
    "discover",
    "discover_fds",
    "discover_approximate_fds",
]


def _choices(values) -> str:
    """Render a choice tuple for a configuration error message."""
    return ", ".join(repr(value) for value in values)


@dataclass(frozen=True)
class TaneConfig:
    """Configuration of a TANE run.

    Attributes
    ----------
    epsilon:
        ``g3`` threshold; ``0.0`` discovers exact dependencies.
    max_lhs_size:
        Upper limit ``|X|`` on the left-hand-side size (Table 3 of the
        paper limits it to 4 for some comparisons); ``None`` = no
        limit.
    store:
        ``"memory"`` (TANE/MEM), ``"disk"`` (TANE), or a ready
        :class:`~repro.partition.store.PartitionStore` instance.
    store_options:
        Keyword options forwarded to :func:`make_store` (e.g.
        ``{"resident_budget_bytes": ...}`` for the disk store).
    use_rule8:
        Apply line 8 of COMPUTE-DEPENDENCIES (the rhs+ refinement).
    use_key_pruning:
        Apply the key pruning rule of Section 4.
    use_g3_bounds:
        Short-circuit approximate validity tests with the O(1) bounds.
    """

    epsilon: float = 0.0
    max_lhs_size: int | None = None
    store: str | PartitionStore = "memory"
    store_options: tuple[tuple[str, object], ...] = ()
    use_rule8: bool = True
    use_key_pruning: bool = True
    use_g3_bounds: bool = True
    measure: str = "g3"
    """Error measure for approximate discovery: ``g3`` (the paper's,
    rows to remove), Kivinen & Mannila's ``g1`` (violating pairs) or
    ``g2`` (rows involved in violations), or the comparative-study
    score measures exposed as ``error = 1 - score`` — ``pdep``,
    ``tau`` (Goodman–Kruskal), ``mu_plus``, ``fi`` (fraction of
    information) and ``rfi`` (Mandros et al.'s reliable fraction of
    information, corrected by its exact permutation-model bias).
    Exact dependencies score error 0 under every measure.
    ``docs/MEASURES.md`` has definitions and guidance."""

    engine: str = "vectorized"
    """Partition engine: ``"vectorized"`` (the CSR array engine — the
    default and the one every benchmark measures) or ``"pure"`` (the
    probe-table algorithms transcribed from the paper, list-of-lists
    storage).  Both produce identical dependencies, keys, and
    deterministic counters — the differential verification harness
    (:mod:`repro.verify`) diffs them cell-by-cell.  The pure engine is
    a reference implementation: it requires the memory store (the
    disk store spills CSR binary)."""

    strategy: str = "levelwise"
    """Traversal strategy: ``"levelwise"`` (the paper's full walk,
    every minimal dependency), ``"topk"`` (the same walk cut off by
    a monotone bound once the ``top_k`` best dependencies by error are
    provably found — see :class:`~repro.search.strategy.TopKStrategy`),
    or ``"dfd"`` (a seeded deterministic random walk per rhs over the
    node-at-a-time engine — same minimal cover as levelwise, far fewer
    nodes visited on high-arity relations; see
    :class:`~repro.search.dfd.DfdStrategy`).  ``dfd`` classifies by
    measure monotonicity, so the non-monotone ``mu_plus``/``rfi``
    measures are rejected; it discovers dependencies only (``keys``
    stays empty)."""

    top_k: int = 0
    """Result size for ``strategy="topk"`` (must be >= 1 there);
    meaningless — and rejected — with any other strategy."""

    topk_rank: str = "error"
    """Ranking mode for ``strategy="topk"``: ``"error"`` (the
    historical error/size/mask order) or ``"redundancy"`` (greedy
    redundancy-penalized selection, so the k results are diverse
    rather than clustered near-duplicates — see
    :func:`repro.search.strategy.redundancy_rank`).  Non-default
    values are rejected with any other strategy."""

    dfd_seed: int = 0
    """Seed (>= 0) of the ``dfd`` random walk.  Any seed yields the
    same minimal cover; the seed shapes *which* nodes the walk tests
    and therefore the deterministic counters.  Non-zero values are
    rejected with any other strategy."""

    executor: SerialExecution | None = None
    """Execution backend of the level loops: ``None`` (the default)
    runs a fresh :class:`~repro.search.execution.SerialExecution`;
    an instance (the from-singletons ablation injects a subclass) is
    used as given, and the caller owns its lifecycle."""

    partition_cache: str | PartitionCache = "off"
    """Cross-run partition cache: ``"off"`` (the default — every run
    computes its own partitions, keeping the deterministic product
    counters at their historical values), ``"shared"`` (the
    process-wide :func:`repro.partition.cache.shared_cache`), or a
    caller-owned :class:`~repro.partition.cache.PartitionCache`
    instance.  Entries are keyed by relation content fingerprint and
    partition engine, so repeated discovery over the same relation
    (verification matrices, resumed runs, services) reuses singleton
    and low-level partitions; cache hits skip the product *and* its
    ``partition_products`` count — they surface in the
    ``cache_hits`` statistic instead."""

    partition_cache_levels: int = 2
    """Largest attribute-set size cached (>= 1).  Level-1 and level-2
    partitions dominate recomputation cost and are few; deeper levels
    are many, large, and rarely revisited."""

    tracer: Tracer | None = None
    """Optional :class:`~repro.obs.trace.Tracer` observing the run —
    the run's one telemetry stream.  A ``discover`` span brackets the
    run (its close record carries ``ok``), with one span per lattice
    level and child spans for the three phases (``node_batch`` spans
    under ``strategy="dfd"``), and store spill/load spans.  Each span
    reaches the tracer's sinks when it opens and again when it closes,
    so live consumers (``ProgressLine``, ``QueueSink``, ...) are sinks;
    a sink that raises aborts the run.  The run's counters accumulate
    in ``tracer.metrics`` and the returned
    :class:`~repro.core.results.DiscoveryResult` keeps the tracer as
    its ``trace`` handle.  ``None`` (the default) disables tracing —
    the no-op path adds no measurable overhead."""

    metrics: MetricsRegistry | None = None
    """Optional externally-owned
    :class:`~repro.obs.metrics.MetricsRegistry` the run accumulates
    into — the handle live exporters scrape
    (:class:`~repro.obs.export.MetricsServer`,
    :class:`~repro.obs.export.SnapshotWriter`) and
    :func:`~repro.obs.export.write_prometheus` renders after the run.
    When a :attr:`tracer` is also attached it must share this registry
    (``Tracer(metrics=...)``); ``None`` uses the tracer's registry or
    a fresh private one."""

    profile: bool = False
    """Attach the sampling profiler
    (:class:`~repro.obs.profile.SamplingProfiler`): CPU samples
    attributed to the open span stack plus per-level tracemalloc
    high-water, returned as ``DiscoveryResult.profile`` and, on a
    traced run, carried by the ``discover`` close record.  Profiling
    an untraced run activates a sink-less tracer so span attribution
    exists; tracemalloc roughly doubles allocation cost, which is why
    this is opt-in."""

    profile_interval: float = 0.005
    """Sampling period in seconds for ``profile=True`` (must be > 0)."""

    checkpoint_dir: str | Path | None = None
    """Directory for checkpoints.  When set, the loop state is written
    atomically after every completed level (see
    :mod:`repro.core.checkpoint`), so a crashed or killed run can be
    resumed with ``resume=True`` and finish with dependencies, keys,
    and counters identical to an uninterrupted run.  With the disk
    store, the spill directory defaults into the checkpoint directory
    so resume can adopt spill files instead of recomputing partitions.
    Node-mode strategies (``dfd``) checkpoint their walk snapshot
    every few scheduling rounds instead of per level; the two formats
    share the file but never resume across modes."""

    resume: bool = False
    """Continue from the checkpoint in :attr:`checkpoint_dir`.  A
    missing checkpoint starts a fresh (checkpointed) run; a checkpoint
    whose relation or configuration fingerprint does not match raises
    :class:`~repro.exceptions.CheckpointError`."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.max_lhs_size is not None and self.max_lhs_size < 1:
            raise ConfigurationError(f"max_lhs_size must be >= 1, got {self.max_lhs_size}")
        if self.measure not in _MEASURES:
            raise ConfigurationError(
                f"unknown measure {self.measure!r}; "
                f"valid choices: {_choices(_MEASURES)}"
            )
        if self.engine not in _ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; "
                f"valid choices: {_choices(_ENGINES)}"
            )
        if self.strategy not in _STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; "
                f"valid choices: {_choices(_STRATEGIES)}"
            )
        if self.top_k < 0:
            raise ConfigurationError(f"top_k must be >= 0, got {self.top_k}")
        if self.strategy == "topk" and self.top_k < 1:
            raise ConfigurationError(
                "strategy='topk' requires top_k >= 1 "
                f"(got top_k={self.top_k})"
            )
        if self.strategy != "topk" and self.top_k:
            raise ConfigurationError(
                f"top_k={self.top_k} is only meaningful with strategy='topk' "
                f"(got strategy={self.strategy!r})"
            )
        if self.topk_rank not in _TOPK_RANK_MODES:
            raise ConfigurationError(
                f"unknown topk_rank {self.topk_rank!r}; "
                f"valid choices: {_choices(_TOPK_RANK_MODES)}"
            )
        if self.strategy != "topk" and self.topk_rank != "error":
            raise ConfigurationError(
                f"topk_rank={self.topk_rank!r} is only meaningful with "
                f"strategy='topk' (got strategy={self.strategy!r})"
            )
        if self.dfd_seed < 0:
            raise ConfigurationError(
                f"dfd_seed must be >= 0, got {self.dfd_seed}"
            )
        if self.strategy != "dfd" and self.dfd_seed:
            raise ConfigurationError(
                f"dfd_seed={self.dfd_seed} is only meaningful with "
                f"strategy='dfd' (got strategy={self.strategy!r})"
            )
        if self.strategy == "dfd" and self.measure in _NON_MONOTONE_MEASURES:
            raise ConfigurationError(
                f"strategy='dfd' requires a monotone measure; "
                f"{self.measure!r} is not (its error can rise as the "
                "lhs grows, breaking the walk's subset/superset "
                "inference) — valid choices: "
                f"{_choices(m for m in _MEASURES if m not in _NON_MONOTONE_MEASURES)}"
            )
        if self.engine == "pure" and self.store == "disk":
            raise ConfigurationError(
                "engine='pure' requires the memory store: the disk store "
                "spills CSR binary"
            )
        if self.executor is not None and not isinstance(self.executor, SerialExecution):
            raise ConfigurationError(
                f"unknown executor {self.executor!r}; pass None (the default "
                "in-process executor) or a SerialExecution instance"
            )
        if (
            isinstance(self.partition_cache, str)
            and self.partition_cache not in _PARTITION_CACHES
        ):
            raise ConfigurationError(
                f"unknown partition_cache {self.partition_cache!r}; "
                f"valid choices: {_choices(_PARTITION_CACHES)} "
                "(or pass a PartitionCache instance)"
            )
        if self.partition_cache_levels < 1:
            raise ConfigurationError(
                f"partition_cache_levels must be >= 1, "
                f"got {self.partition_cache_levels}"
            )
        if self.profile_interval <= 0:
            raise ConfigurationError(
                f"profile_interval must be > 0, got {self.profile_interval}"
            )
        if (
            self.metrics is not None
            and self.tracer is not None
            and self.tracer.metrics is not self.metrics
        ):
            raise ConfigurationError(
                "config.metrics and config.tracer.metrics are different "
                "registries; construct the tracer with "
                "Tracer(metrics=config.metrics) so counters accumulate "
                "in one place"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ConfigurationError("resume=True requires checkpoint_dir")


def _with_overrides(
    config: TaneConfig | None,
    epsilon: float,
    store: str | PartitionStore,
    max_lhs_size: int | None,
) -> TaneConfig:
    """Apply only the keyword arguments the caller actually supplied.

    ``epsilon`` is always fixed by the wrapper's contract, but
    ``store``/``max_lhs_size`` must not silently clobber values set on
    an explicitly passed ``TaneConfig`` with the keyword defaults.
    """
    overrides: dict[str, Any] = {"epsilon": epsilon}
    if store is not _UNSET:
        overrides["store"] = store
    if max_lhs_size is not _UNSET:
        overrides["max_lhs_size"] = max_lhs_size
    return replace(config or TaneConfig(), **overrides)


def discover_fds(
    relation: Relation,
    *,
    store: str | PartitionStore = _UNSET,
    max_lhs_size: int | None = _UNSET,
    config: TaneConfig | None = None,
) -> DiscoveryResult:
    """Find all minimal non-trivial functional dependencies of ``relation``.

    Convenience wrapper around :func:`discover` with ``epsilon = 0``.
    Without ``config``, ``store`` defaults to ``"memory"`` and
    ``max_lhs_size`` to unlimited; with an explicit ``config``, only
    the keywords actually supplied override its fields.
    """
    return discover(relation, _with_overrides(config, 0.0, store, max_lhs_size))


def discover_approximate_fds(
    relation: Relation,
    epsilon: float,
    *,
    store: str | PartitionStore = _UNSET,
    max_lhs_size: int | None = _UNSET,
    config: TaneConfig | None = None,
) -> DiscoveryResult:
    """Find all minimal approximate dependencies with ``g3 <= epsilon``.

    Like :func:`discover_fds`, keywords left at their defaults never
    override fields of an explicitly passed ``config``.
    """
    return discover(relation, _with_overrides(config, epsilon, store, max_lhs_size))


def discover(relation: Relation, config: TaneConfig | None = None) -> DiscoveryResult:
    """Run TANE on a relation with an explicit configuration."""
    runner = _TaneRun(relation, config or TaneConfig())
    return runner.run()


class _TaneRun:
    """One TANE execution: component assembly plus lifecycle.

    The search itself is :class:`~repro.search.driver.SearchDriver`;
    this class builds the components a :class:`TaneConfig` names,
    attaches the tracing and checkpointing plugins, and owns the
    resources (store, tracer flush) around the driver run.
    """

    def __init__(self, relation: Relation, config: TaneConfig) -> None:
        self.relation = relation
        self.config = config
        self.num_rows = relation.num_rows
        self.num_attributes = relation.num_attributes
        # Maximum rows removable for an approximate dependency to count
        # as valid: g3 <= epsilon  <=>  removed <= floor(epsilon * |r|).
        self.epsilon_count = int(config.epsilon * self.num_rows + 1e-9)
        self.checkpoint: CheckpointManager | None = (
            CheckpointManager(config.checkpoint_dir)
            if config.checkpoint_dir is not None
            else None
        )
        if isinstance(config.store, str):
            store_options = dict(config.store_options)
            if (
                self.checkpoint is not None
                and config.store == "disk"
                and "directory" not in store_options
            ):
                # Route spills into the checkpoint directory: a failed
                # run's spill files are then exactly what resume adopts
                # instead of recomputing partitions from singletons.
                store_options["directory"] = self.checkpoint.spill_directory
            self.store: PartitionStore = make_store(config.store, **store_options)
            self._owns_store = True
        else:
            self.store = config.store
            self._owns_store = False
        self.executor = config.executor or SerialExecution()
        partition_cls = CsrPartition if config.engine == "vectorized" else PurePartition
        if isinstance(config.partition_cache, PartitionCache):
            self.partition_cache: PartitionCache | None = config.partition_cache
        elif config.partition_cache == "shared":
            self.partition_cache = shared_cache()
        else:
            self.partition_cache = None
        # Engine in the key: CSR and pure partitions are distinct types
        # and must never satisfy each other's lookups.  The key shape
        # is owned by repro.fingerprint so cache invalidation (the
        # service's dataset re-registration) computes the same string.
        self.cache_fingerprint = (
            partition_cache_key(relation, partition_cls)
            if self.partition_cache is not None
            else ""
        )
        workspace = PartitionWorkspace(self.num_rows)
        # Marginal rhs statistics (pdep(A), H(A), value histogram) are
        # column properties: computed once here and carried inside the
        # criteria, so tau/fi/rfi evaluate without touching the
        # relation.  Measures that never read them get an empty tuple.
        rhs_stats = (
            relation_rhs_stats(relation)
            if config.measure in RHS_STATS_MEASURES
            else ()
        )
        self.criteria = ValidityCriteria(
            epsilon=config.epsilon,
            epsilon_count=self.epsilon_count,
            measure=config.measure,
            use_g3_bounds=config.use_g3_bounds,
            num_rows=self.num_rows,
            rhs_stats=rhs_stats,
        )
        # Counters live in a metrics registry — shared with the tracer
        # when one is attached, private otherwise — and the public
        # SearchStatistics view is derived from it at the end of the
        # run.
        self.tracer = config.tracer
        if config.metrics is not None:
            self.metrics: MetricsRegistry = config.metrics
        elif config.tracer is not None:
            self.metrics = config.tracer.metrics
        else:
            self.metrics = MetricsRegistry()
        self._span_tracer = self.tracer
        self.profiler: SamplingProfiler | None = None
        if config.profile:
            if self._span_tracer is None:
                # Span attribution needs an open-span stack even when
                # the run is otherwise untraced: a sink-less tracer
                # maintains the stack and discards the finished spans.
                self._span_tracer = Tracer(sinks=(), metrics=self.metrics)
            self.profiler = SamplingProfiler(
                self._span_tracer, interval=config.profile_interval
            )
        self.strategy = make_strategy(
            config.strategy,
            top_k=config.top_k,
            topk_rank=config.topk_rank,
            dfd_seed=config.dfd_seed,
        )
        self.tracker = CandidateTracker(
            relation.schema.full_mask(),
            epsilon=config.epsilon,
            use_rule8=config.use_rule8,
            use_key_pruning=config.use_key_pruning,
            max_lhs_size=config.max_lhs_size,
        )
        self.partitions = PartitionManager(
            relation,
            partition_cls,
            self.store,
            workspace,
            self.executor,
            products_counter=self.metrics.counter("tane.partition_products"),
            cache=self.partition_cache,
            cache_fingerprint=self.cache_fingerprint,
            cache_levels=config.partition_cache_levels,
            cache_hits_counter=self.metrics.counter("cache.partition_hits"),
            cache_misses_counter=self.metrics.counter("cache.partition_misses"),
        )
        hooks: list = [TracingHooks()] if self._span_tracer is not None else []
        if self.checkpoint is not None:
            hooks.append(
                CheckpointHooks(
                    self.checkpoint,
                    self._fingerprint(),
                    resume=config.resume,
                )
            )
        self.driver = SearchDriver(
            relation,
            tracker=self.tracker,
            strategy=self.strategy,
            partitions=self.partitions,
            executor=self.executor,
            criteria=self.criteria,
            workspace=workspace,
            metrics=self.metrics,
            hooks=hooks,
            max_lhs_size=config.max_lhs_size,
        )

    def _fingerprint(self) -> dict[str, Any]:
        """Identity of (relation, search-shaping config) for a checkpoint."""
        return search_fingerprint(self.relation, self.config, self.strategy)

    # ------------------------------------------------------------------

    def run(self) -> DiscoveryResult:
        start = time.perf_counter()
        # Gauges describe *current* state: a registry reused across
        # runs (long-lived tracer, service process) must not report the
        # previous run's residency or cache totals.  Counters keep
        # accumulating by design.
        self.metrics.reset_gauges(("store.", "cache."))
        profile = None
        try:
            if self._span_tracer is None:
                dependencies = self.driver.run()
            else:
                with obs.activated(self._span_tracer):
                    dependencies, profile = self._traced_run()
        finally:
            self.partitions.collect_stats(self.metrics)
            if self._owns_store:
                # Close under the activated tracer so the store's final
                # gauge updates (resident_bytes -> 0) reach the run's
                # registry like every other store emission.
                if self._span_tracer is not None:
                    with obs.activated(self._span_tracer):
                        self.store.close()
                else:
                    self.store.close()
            if self.tracer is not None:
                # Flush in the crash path too — a trace matters most
                # when the search died; dropping buffered spans on an
                # exception loses exactly the evidence needed.
                self.tracer.flush()
        stats = SearchStatistics.from_metrics(self.metrics, measure=self.config.measure)
        stats.elapsed_seconds = time.perf_counter() - start
        return DiscoveryResult(
            dependencies=dependencies,
            keys=self.tracker.keys,
            schema=self.relation.schema,
            epsilon=self.config.epsilon,
            statistics=stats,
            trace=self.tracer,
            profile=profile,
            measure=self.config.measure,
        )

    def _traced_run(self):
        """The driver run inside the ``discover`` span that brackets it.

        The span's open record is the run's start; its close record is
        the run's end, with ``ok`` (false when the run raised), the
        result sizes, the cross-run cache totals and, when profiling,
        the profiler's report.
        """
        with obs.span(
            "discover",
            rows=self.num_rows,
            attributes=self.num_attributes,
            epsilon=self.config.epsilon,
            measure=self.config.measure,
        ) as root:
            try:
                if self.profiler is None:
                    dependencies = self.driver.run()
                else:
                    with self.profiler.running():
                        dependencies = self.driver.run()
            except BaseException:
                root.set("ok", False)
                raise
            root.set("ok", True)
            root.set("dependencies", len(self.tracker.dependencies))
            root.set("keys", len(self.tracker.keys))
            root.set(
                "cache_hits", int(self.metrics.counter_value("cache.partition_hits"))
            )
            root.set(
                "cache_misses",
                int(self.metrics.counter_value("cache.partition_misses")),
            )
            profile = None
            if self.profiler is not None:
                profile = self.profiler.report()
                root.set("profile", profile.to_dict())
        return dependencies, profile
