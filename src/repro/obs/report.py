"""Render a trace into the per-level report.

``repro trace-report out.jsonl`` feeds the spans written by ``repro
discover --trace`` through :func:`build_report` and prints the result:
one row per lattice level with the paper's quantities (``s_ℓ``,
validity tests, keys) next to phase timings and partition-store I/O.
This is the tool that attributes a run's wall-clock time to levels and
phases on any host, which whole-run totals cannot do.  A dfd
run (``strategy="dfd"``) has no levels; its report is a node-batch
summary instead.

The report is computed from span *structure* (names, parent links,
attributes), not from ids, so it works on any trace following the
span vocabulary of the instrumented layers:

``discover`` → ``level`` → ``compute_dependencies`` / ``prune`` /
``generate_next_level``, or ``discover`` → ``node_batch``;
``store.spill`` / ``store.load`` anywhere below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.sinks import load_spans
from repro.obs.trace import Span

__all__ = ["LevelRow", "TraceReport", "build_report", "report_from_file"]

_PHASES = ("compute_dependencies", "prune", "generate_next_level")


@dataclass
class LevelRow:
    """Aggregated trace data of one lattice level."""

    level: int
    seconds: float = 0.0
    s_l: int = 0
    surviving: int = 0
    tests: int = 0
    error_computations: int = 0
    bound_rejections: int = 0
    keys: int = 0
    products: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    spills: int = 0
    spill_bytes: int = 0
    loads: int = 0
    load_bytes: int = 0


@dataclass
class TraceReport:
    """The assembled per-level view of one trace."""

    levels: list[LevelRow]
    total_seconds: float
    span_count: int
    batches: int = 0
    """``node_batch`` spans (dfd runs only)."""
    batch_tests: int = 0
    """Validity tests summed over the node batches."""
    batch_dependencies: int = 0
    """Dependencies the walk found (the ``discover`` close record's
    count; the dfd walk records its dependencies after its last
    batch)."""
    batch_seconds: float = 0.0
    """Seconds spent inside node batches."""

    def format(self) -> str:
        """Render the report as the fixed-width tables the CLI prints."""
        if self.batches:
            return self._format_batches()
        lines: list[str] = []
        header = (
            f"{'lvl':>3} {'s_l':>7} {'surv':>7} {'tests':>8} {'errors':>8} "
            f"{'bounds':>7} {'keys':>5} {'prods':>8} "
            f"{'compute_s':>10} {'prune_s':>8} {'generate_s':>10} "
            f"{'spills':>7} {'spill_MB':>9} {'loads':>6} {'load_MB':>8}"
        )
        lines.append("per-level phase timings and store I/O")
        lines.append(header)
        lines.append("-" * len(header))
        mb = 1024.0 * 1024.0
        for row in self.levels:
            lines.append(
                f"{row.level:>3} {row.s_l:>7} {row.surviving:>7} {row.tests:>8} "
                f"{row.error_computations:>8} {row.bound_rejections:>7} "
                f"{row.keys:>5} {row.products:>8} "
                f"{row.phase_seconds.get('compute_dependencies', 0.0):>10.4f} "
                f"{row.phase_seconds.get('prune', 0.0):>8.4f} "
                f"{row.phase_seconds.get('generate_next_level', 0.0):>10.4f} "
                f"{row.spills:>7} {row.spill_bytes / mb:>9.2f} "
                f"{row.loads:>6} {row.load_bytes / mb:>8.2f}"
            )
        totals = _totals(self.levels)
        lines.append("-" * len(header))
        lines.append(
            f"{'sum':>3} {totals.s_l:>7} {totals.surviving:>7} {totals.tests:>8} "
            f"{totals.error_computations:>8} {totals.bound_rejections:>7} "
            f"{totals.keys:>5} {totals.products:>8} "
            f"{totals.phase_seconds.get('compute_dependencies', 0.0):>10.4f} "
            f"{totals.phase_seconds.get('prune', 0.0):>8.4f} "
            f"{totals.phase_seconds.get('generate_next_level', 0.0):>10.4f} "
            f"{totals.spills:>7} {totals.spill_bytes / mb:>9.2f} "
            f"{totals.loads:>6} {totals.load_bytes / mb:>8.2f}"
        )
        lines.append(self._footer())
        return "\n".join(lines)

    def _format_batches(self) -> str:
        """The node-batch summary of a dfd run."""
        totals = _totals(self.levels)
        mb = 1024.0 * 1024.0
        header = (
            f"{'batches':>8} {'tests':>8} {'deps':>6} {'seconds':>10} "
            f"{'spills':>7} {'spill_MB':>9} {'loads':>6} {'load_MB':>8}"
        )
        lines = ["node-batch summary", header, "-" * len(header)]
        lines.append(
            f"{self.batches:>8} {self.batch_tests:>8} "
            f"{self.batch_dependencies:>6} {self.batch_seconds:>10.4f} "
            f"{totals.spills:>7} {totals.spill_bytes / mb:>9.2f} "
            f"{totals.loads:>6} {totals.load_bytes / mb:>8.2f}"
        )
        lines.append(self._footer())
        return "\n".join(lines)

    def _footer(self) -> str:
        return f"trace: {self.span_count} spans, run {self.total_seconds:.4f}s"


def _totals(levels: list[LevelRow]) -> LevelRow:
    total = LevelRow(level=-1)
    for row in levels:
        total.s_l += row.s_l
        total.surviving += row.surviving
        total.tests += row.tests
        total.error_computations += row.error_computations
        total.bound_rejections += row.bound_rejections
        total.keys += row.keys
        total.products += row.products
        total.spills += row.spills
        total.spill_bytes += row.spill_bytes
        total.loads += row.loads
        total.load_bytes += row.load_bytes
        for phase, seconds in row.phase_seconds.items():
            total.phase_seconds[phase] = total.phase_seconds.get(phase, 0.0) + seconds
    return total


def _level_of(span: Span, by_id: dict[int, Span]) -> int | None:
    """The ``level`` attribute of the nearest enclosing level span."""
    current: Span | None = span
    while current is not None:
        if current.name == "level":
            level = current.attributes.get("level")
            return int(level) if level is not None else None
        parent = current.parent_id
        current = by_id.get(parent) if parent is not None else None
    return None


def build_report(spans: list[Span]) -> TraceReport:
    """Aggregate a span list into a :class:`TraceReport`.

    Spans with no enclosing level (the singleton-partition setup that
    precedes the levelwise loop) are folded into a pseudo-level 0 row,
    created only if they performed any store I/O.
    """
    by_id = {span.span_id: span for span in spans}
    rows: dict[int, LevelRow] = {}

    def row_for(level: int | None) -> LevelRow:
        key = 0 if level is None else level
        row = rows.get(key)
        if row is None:
            row = rows[key] = LevelRow(level=key)
        return row

    total_seconds = 0.0
    batches = batch_tests = batch_dependencies = 0
    batch_seconds = 0.0
    for span in spans:
        attrs = span.attributes
        if span.name == "discover":
            total_seconds = max(total_seconds, span.duration)
            batch_dependencies = max(
                batch_dependencies, int(attrs.get("dependencies", 0))
            )
        elif span.name == "level":
            row = row_for(int(attrs.get("level", 0)))
            row.seconds += span.duration
            row.s_l += int(attrs.get("s_l", 0))
            row.surviving += int(attrs.get("surviving", 0))
        elif span.name in _PHASES:
            row = row_for(_level_of(span, by_id))
            row.phase_seconds[span.name] = (
                row.phase_seconds.get(span.name, 0.0) + span.duration
            )
            if span.name == "compute_dependencies":
                row.tests += int(attrs.get("tests", 0))
                row.error_computations += int(attrs.get("error_computations", 0))
                row.bound_rejections += int(attrs.get("bound_rejections", 0))
            elif span.name == "prune":
                row.keys += int(attrs.get("keys_found", 0))
            elif span.name == "generate_next_level":
                row.products += int(attrs.get("products", 0))
        elif span.name == "node_batch":
            batches += 1
            batch_tests += int(attrs.get("tests", 0))
            batch_dependencies = max(
                batch_dependencies, int(attrs.get("dependencies_total", 0))
            )
            batch_seconds += span.duration
        elif span.name == "store.spill":
            row = row_for(_level_of(span, by_id))
            row.spills += 1
            row.spill_bytes += int(attrs.get("bytes", 0))
        elif span.name == "store.load":
            row = row_for(_level_of(span, by_id))
            row.loads += 1
            row.load_bytes += int(attrs.get("bytes", 0))
    if total_seconds == 0.0 and spans:
        total_seconds = sum(row.seconds for row in rows.values()) + batch_seconds
    # Drop an empty pseudo-level-0 row; keep it when setup did real I/O.
    setup = rows.get(0)
    if setup is not None and not (setup.spills or setup.loads):
        del rows[0]
    return TraceReport(
        levels=[rows[key] for key in sorted(rows)],
        total_seconds=total_seconds,
        span_count=len(spans),
        batches=batches,
        batch_tests=batch_tests,
        batch_dependencies=batch_dependencies,
        batch_seconds=batch_seconds,
    )


def report_from_file(path: str | Path) -> TraceReport:
    """Load a JSONL trace and build its report (the CLI entry point)."""
    return build_report(load_spans(path))
