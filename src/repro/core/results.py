"""Discovery results and search statistics.

The statistics mirror the quantities of the paper's analysis
(Section 6): level sizes ``s_ℓ`` (and their sum ``s`` / max
``s_max``), the number of keys ``k``, the number of validity tests
``v``, plus implementation counters (partition products, exact error
computations, bound short-circuits, store I/O) used by the benchmark
harness and the ablation experiments.

Since the observability layer landed, the TANE driver accumulates
these quantities in a :class:`~repro.obs.metrics.MetricsRegistry`
(shared with the tracer when one is attached) and derives the
:class:`SearchStatistics` object from it at the end of the run via
:meth:`SearchStatistics.from_metrics` — the dataclass is a stable
public *view* of the registry, so every counter keeps its historical
meaning whether tracing is on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.model.fd import FDSet, FunctionalDependency
from repro.model.schema import RelationSchema

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import ProfileReport
    from repro.obs.trace import Tracer

__all__ = ["SearchStatistics", "DiscoveryResult"]


@dataclass
class SearchStatistics:
    """Counters collected during one levelwise search."""

    level_sizes: list[int] = field(default_factory=list)
    """``s_ℓ``: number of sets in each level as generated (before pruning)."""

    pruned_level_sizes: list[int] = field(default_factory=list)
    """Number of sets in each level that survived PRUNE."""

    validity_tests: int = 0
    """``v``: executions of the validity test (line 5 / 5')."""

    partition_products: int = 0
    """Partition products computed by GENERATE-NEXT-LEVEL."""

    g3_exact_computations: int = 0
    """Exact O(|r|) error computations of a ``g3`` run.

    Kept for compatibility: this is a **g3-only alias** of
    :attr:`error_computations` — equal to it when ``measure == "g3"``
    and 0 under ``g1``/``g2``.  It is derived, not counted separately;
    new code should read :attr:`error_computations`."""

    error_computations: int = 0
    """Exact O(|r|) error computations under *any* measure (g1/g2/g3).

    The single source of truth for exact error work; ablation reports
    comparing measures attribute work to the measure that actually
    performed it."""

    g3_bound_rejections: int = 0
    """Validity tests resolved by the O(1) lower bound alone."""

    keys_found: int = 0
    """``k``: sets removed by key pruning."""

    elapsed_seconds: float = 0.0
    """Wall-clock time of the whole search."""

    store_spills: int = 0
    """Partitions written to disk (disk store only)."""

    store_loads: int = 0
    """Partitions read back from disk (disk store only)."""

    peak_resident_bytes: int = 0
    """Peak bytes of partitions held in memory by the store."""

    @classmethod
    def from_metrics(cls, metrics: "MetricsRegistry", measure: str = "g3") -> "SearchStatistics":
        """Derive the statistics view from a run's metrics registry.

        ``measure`` decides :attr:`g3_exact_computations`: the field is
        a g3-only alias of :attr:`error_computations`, so it mirrors
        that counter for g3 runs and stays 0 otherwise.
        """
        error_computations = int(metrics.counter_value("tane.error_computations"))
        return cls(
            level_sizes=[int(v) for v in metrics.series_values("tane.level_sizes")],
            pruned_level_sizes=[
                int(v) for v in metrics.series_values("tane.pruned_level_sizes")
            ],
            validity_tests=int(metrics.counter_value("tane.validity_tests")),
            partition_products=int(metrics.counter_value("tane.partition_products")),
            error_computations=error_computations,
            g3_exact_computations=error_computations if measure == "g3" else 0,
            g3_bound_rejections=int(metrics.counter_value("tane.g3_bound_rejections")),
            keys_found=int(metrics.counter_value("tane.keys_found")),
            store_spills=int(metrics.gauge_value("store.spill_count")),
            store_loads=int(metrics.gauge_value("store.load_count")),
            peak_resident_bytes=int(metrics.gauge_value("store.peak_resident_bytes")),
        )

    @property
    def total_sets(self) -> int:
        """``s``: the sum of the level sizes."""
        return sum(self.level_sizes)

    @property
    def max_level_size(self) -> int:
        """``s_max``: the size of the largest level."""
        return max(self.level_sizes, default=0)


@dataclass
class DiscoveryResult:
    """The output of a dependency-discovery run.

    Attributes
    ----------
    dependencies:
        All minimal non-trivial (approximate) dependencies found.
    keys:
        Attribute-set bitmasks removed by key pruning; for an exact
        search these are minimal keys of the relation encountered by
        the traversal.
    schema:
        Schema of the analysed relation, for rendering.
    epsilon:
        The ``g3`` threshold used (0.0 for exact discovery).
    statistics:
        Search counters (see :class:`SearchStatistics`).
    trace:
        The :class:`~repro.obs.trace.Tracer` that observed the run,
        when one was attached via ``TaneConfig(tracer=...)`` — its
        sinks hold the spans, its registry the raw metrics.  ``None``
        for untraced runs.
    profile:
        The :class:`~repro.obs.profile.ProfileReport` of the run when
        ``TaneConfig(profile=True)`` was set: CPU samples attributed
        to the span stack plus per-level tracemalloc peaks.  ``None``
        otherwise.
    measure:
        Name of the error measure the run used (labels rendered
        errors; the threshold semantics are
        ``error <= epsilon`` for every measure).
    """

    dependencies: FDSet
    keys: list[int]
    schema: RelationSchema
    epsilon: float
    statistics: SearchStatistics
    trace: "Tracer | None" = None
    profile: "ProfileReport | None" = None
    measure: str = "g3"

    def __len__(self) -> int:
        return len(self.dependencies)

    def __iter__(self):
        return iter(self.dependencies)

    def __repr__(self) -> str:
        if self.epsilon == 0.0:
            kind = "exact"
        elif self.measure != "g3":
            kind = f"approximate(eps={self.epsilon}, measure={self.measure})"
        else:
            kind = f"approximate(eps={self.epsilon})"
        return (
            f"<DiscoveryResult {kind}: {len(self.dependencies)} dependencies, "
            f"{len(self.keys)} keys, {self.statistics.elapsed_seconds:.3f}s>"
        )

    def sorted_dependencies(self) -> list[FunctionalDependency]:
        """Dependencies sorted by (lhs size, lhs, rhs) for stable output."""
        return self.dependencies.sorted()

    def key_names(self) -> list[tuple[str, ...]]:
        """The discovered keys rendered as attribute-name tuples."""
        return [self.schema.names_of(mask) for mask in self.keys]

    def format(self) -> str:
        """Human-readable multi-line rendering of the result."""
        lines = [repr(self)]
        for key in self.key_names():
            lines.append(f"key: {{{', '.join(key)}}}")
        lines.append(self.dependencies.format(self.schema, measure=self.measure))
        return "\n".join(lines)
