"""Differential runner: one relation through the whole config matrix.

:func:`verify_relation` executes a relation under every
:class:`~repro.verify.matrix.ConfigCell`, reduces each
:class:`~repro.core.results.DiscoveryResult` to a :class:`RunSignature`
(dependencies, per-FD errors, keys, deterministic counters), and diffs
every cell's signature against the reference cell's along the
dimensions the cell declares.  The reference signature is additionally
checked against two *independent* oracles — the exhaustive
:func:`~repro.baselines.bruteforce.discover_fds_bruteforce` (any
scenario) and :func:`~repro.baselines.fdep.discover_fds_fdep` (exact
scenarios) — so a bug shared by every TANE configuration still cannot
hide.

Checkpoint cells do not merely set ``checkpoint_dir``: the runner
interrupts them at a level boundary with a raising sink on the run's
span stream and resumes from the written checkpoint, so the diffed
signature is the one an actual crash/resume cycle produces.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro import _bitset
from repro.baselines.bruteforce import discover_fds_bruteforce
from repro.baselines.fdep import discover_fds_fdep
from repro.core.results import DiscoveryResult
from repro.core.tane import NON_MONOTONE_MEASURES, TaneConfig, discover
from repro.model.fd import FDSet
from repro.model.relation import Relation
from repro.obs.trace import Tracer
from repro.search.scheduler import NodeEngine
from repro.verify.matrix import ConfigCell, REFERENCE_CELL

__all__ = [
    "Scenario",
    "Mismatch",
    "RunSignature",
    "CellRun",
    "VerificationReport",
    "run_cell",
    "compare_with_oracles",
    "compare_topk",
    "compare_strategy_dfd",
    "verify_relation",
]

_ERROR_TOLERANCE = 1e-9
"""Per-FD error tolerance for oracle comparisons.  Cell-vs-reference
diffs demand exact equality (same arithmetic on the same counts); the
oracles compute errors through an independent formula, so they are
granted float-roundoff slack."""

_INTERRUPT_LEVEL = 2
"""Lattice level at which checkpoint cells are interrupted.  Level 2 is
the first level whose candidates were generated by the search itself,
so the resume path restores genuinely computed state."""


@dataclass(frozen=True)
class Scenario:
    """The discovery problem shared by every cell of one verification.

    The matrix varies *how* the search executes; the scenario fixes
    *what* it searches for — threshold, error measure, and lhs limit.
    """

    epsilon: float = 0.0
    """Error threshold (0.0 = exact discovery)."""

    measure: str = "g3"
    """Error measure for approximate scenarios (``g3``/``g1``/``g2``)."""

    max_lhs_size: int | None = None
    """Left-hand-side size limit, or ``None`` for unlimited."""

    def describe(self) -> dict:
        """JSON-serializable description, for failure-case files."""
        return {
            "epsilon": self.epsilon,
            "measure": self.measure,
            "max_lhs_size": self.max_lhs_size,
        }

    @classmethod
    def from_description(cls, data: dict) -> "Scenario":
        """Rebuild a scenario from :meth:`describe` output."""
        return cls(
            epsilon=data["epsilon"],
            measure=data["measure"],
            max_lhs_size=data["max_lhs_size"],
        )


@dataclass(frozen=True)
class Mismatch:
    """One detected disagreement.

    ``cell`` names the disagreeing party: a matrix cell name for
    differential mismatches, ``"oracle:bruteforce"`` /
    ``"oracle:fdep"`` for oracle disagreements, or a metamorphic check
    name (``"metamorphic:<transform>"``) from the metamorphic layer.
    """

    cell: str
    """Who disagreed with the reference."""

    dimension: str
    """Which result dimension differs (``fds``/``errors``/``keys``/``counters``)."""

    detail: str
    """Human-readable description of the difference."""

    def describe(self) -> dict:
        """JSON-serializable description, for failure-case files."""
        return {"cell": self.cell, "dimension": self.dimension, "detail": self.detail}


def _fd_triples(dependencies: FDSet) -> list[tuple[int, int, float]]:
    """Sorted ``(lhs_mask, rhs, error)`` triples of an FD set.

    FDSet equality ignores the error field, so per-FD error agreement
    must be compared through these explicit triples.
    """
    return sorted((fd.lhs, fd.rhs, fd.error) for fd in dependencies)


@dataclass(frozen=True)
class RunSignature:
    """Everything a discovery run must reproduce, in comparable form."""

    fds: tuple
    """Sorted ``(lhs_mask, rhs)`` pairs of the minimal cover."""

    errors: tuple
    """Sorted ``(lhs_mask, rhs, error)`` triples."""

    keys: tuple
    """Sorted key bitmasks removed by key pruning."""

    counters: tuple
    """Deterministic search counters as sorted ``(name, value)`` pairs."""

    @classmethod
    def from_result(cls, result: DiscoveryResult) -> "RunSignature":
        """Reduce a :class:`DiscoveryResult` to its comparable signature."""
        stats = result.statistics
        counters = (
            ("error_computations", stats.error_computations),
            ("g3_bound_rejections", stats.g3_bound_rejections),
            ("keys_found", stats.keys_found),
            ("level_sizes", tuple(stats.level_sizes)),
            ("partition_products", stats.partition_products),
            ("pruned_level_sizes", tuple(stats.pruned_level_sizes)),
            ("validity_tests", stats.validity_tests),
        )
        return cls(
            fds=tuple(sorted((fd.lhs, fd.rhs) for fd in result.dependencies)),
            errors=tuple(_fd_triples(result.dependencies)),
            keys=tuple(sorted(result.keys)),
            counters=counters,
        )

    def diff(self, other: "RunSignature", compare, cell: str) -> list[Mismatch]:
        """Mismatches between ``self`` (reference) and ``other`` along
        the dimensions in ``compare``."""
        found: list[Mismatch] = []
        if "fds" in compare and self.fds != other.fds:
            missing = set(self.fds) - set(other.fds)
            extra = set(other.fds) - set(self.fds)
            found.append(Mismatch(
                cell, "fds",
                f"cover differs: {len(missing)} missing, {len(extra)} extra "
                f"(missing={sorted(missing)!r}, extra={sorted(extra)!r})",
            ))
        elif "errors" in compare and self.errors != other.errors:
            differing = [
                (ours, theirs)
                for ours, theirs in zip(self.errors, other.errors)
                if ours != theirs
            ]
            found.append(Mismatch(
                cell, "errors",
                f"per-FD errors differ on {len(differing)} dependencies: "
                f"{differing[:5]!r}",
            ))
        if "keys" in compare and self.keys != other.keys:
            found.append(Mismatch(
                cell, "keys",
                f"keys differ: reference={list(self.keys)!r} "
                f"cell={list(other.keys)!r}",
            ))
        if "counters" in compare and self.counters != other.counters:
            differing = [
                (name, value, theirs[1])
                for (name, value), theirs in zip(self.counters, other.counters)
                if value != theirs[1]
            ]
            found.append(Mismatch(
                cell, "counters",
                "deterministic counters differ: " + ", ".join(
                    f"{name} {value!r} != {other_value!r}"
                    for name, value, other_value in differing
                ),
            ))
        return found

    def describe(self) -> dict:
        """JSON-serializable description, for failure-case files."""
        return {
            "fds": [list(pair) for pair in self.fds],
            "errors": [list(triple) for triple in self.errors],
            "keys": list(self.keys),
            "counters": {
                name: list(value) if isinstance(value, tuple) else value
                for name, value in self.counters
            },
        }


@dataclass(frozen=True)
class CellRun:
    """One executed cell: its signature plus the raw result (for the
    trace-aware report on traced cells)."""

    cell: ConfigCell
    """The cell that ran."""

    signature: RunSignature
    """The comparable reduction of its result."""

    result: DiscoveryResult
    """The full result; ``result.trace`` holds the tracer on traced cells."""

    resumed: bool = False
    """True when a checkpoint cell was interrupted and then resumed."""


class _VerifyInterrupt(Exception):
    """Internal: raised by :class:`_Interrupt` to abort a checkpoint
    cell's first attempt."""


class _Interrupt:
    """Span sink raising :class:`_VerifyInterrupt` at the first record
    ``at(span)`` accepts; :attr:`fired` tells whether it did."""

    def __init__(self, at) -> None:
        self._at = at
        self.fired = False

    def record(self, span) -> None:
        if not self.fired and self._at(span):
            self.fired = True
            raise _VerifyInterrupt(span.name)

    def flush(self) -> None:
        """Nothing buffered."""

    def close(self) -> None:
        """Nothing held."""


def _level_opens(level: int):
    """Accept the open record of lattice level ``level`` — the level
    boundary right after the previous level's checkpoint."""
    return lambda span: (
        span.name == "level" and span.end is None and span.attributes["level"] == level
    )


def run_cell(
    relation: Relation,
    scenario: Scenario,
    cell: ConfigCell,
    *,
    workdir: str | Path,
) -> CellRun:
    """Execute ``relation`` under one cell and return its signature.

    Checkpoint cells run the full crash cycle: the first attempt is
    interrupted when level ``2`` opens, by a raising sink on its span
    stream, then the run is resumed from the checkpoint the
    interrupted attempt wrote.
    Relations too small to reach the interrupt level simply complete on
    the first attempt — still exercising checkpoint *writing* — and
    that result is used.  Each call starts from a clean per-cell
    checkpoint directory so repeated fuzz iterations never resume a
    stale state.
    """
    if not cell.checkpoint:
        config = cell.build_config(
            epsilon=scenario.epsilon,
            measure=scenario.measure,
            max_lhs_size=scenario.max_lhs_size,
        )
        result = discover(relation, config)
        return CellRun(cell, RunSignature.from_result(result), result)

    checkpoint_dir = Path(workdir) / f"checkpoint-{cell.name}"
    if checkpoint_dir.exists():
        shutil.rmtree(checkpoint_dir)
    interrupt = _Interrupt(_level_opens(_INTERRUPT_LEVEL))
    try:
        result = discover(relation, cell.build_config(
            epsilon=scenario.epsilon,
            measure=scenario.measure,
            max_lhs_size=scenario.max_lhs_size,
            checkpoint_dir=checkpoint_dir,
            sinks=(interrupt,),
        ))
    except _VerifyInterrupt:
        result = discover(relation, cell.build_config(
            epsilon=scenario.epsilon,
            measure=scenario.measure,
            max_lhs_size=scenario.max_lhs_size,
            checkpoint_dir=checkpoint_dir,
            resume=True,
        ))
    return CellRun(
        cell, RunSignature.from_result(result), result, resumed=interrupt.fired
    )


def compare_with_oracles(
    relation: Relation,
    scenario: Scenario,
    reference: RunSignature,
) -> list[Mismatch]:
    """Diff the reference signature against the independent oracles.

    The bruteforce oracle applies to every scenario (it evaluates the
    error definitions directly); FDEP is exact-only.  Oracles know
    nothing of keys or search counters, so only the cover and — for
    bruteforce — the per-FD errors are compared, the latter under a
    small float tolerance because the oracle computes errors through an
    independent formula.
    """
    found: list[Mismatch] = []

    bruteforce = discover_fds_bruteforce(
        relation, scenario.epsilon, scenario.max_lhs_size, scenario.measure
    )
    oracle_pairs = tuple(sorted((fd.lhs, fd.rhs) for fd in bruteforce))
    if oracle_pairs != reference.fds:
        missing = set(oracle_pairs) - set(reference.fds)
        extra = set(reference.fds) - set(oracle_pairs)
        found.append(Mismatch(
            "oracle:bruteforce", "fds",
            f"cover differs from exhaustive search: TANE lacks "
            f"{sorted(missing)!r}, TANE adds {sorted(extra)!r}",
        ))
    elif scenario.epsilon > 0.0:
        oracle_triples = _fd_triples(bruteforce)
        differing = [
            (ours, theirs)
            for ours, theirs in zip(reference.errors, oracle_triples)
            if abs(ours[2] - theirs[2]) > _ERROR_TOLERANCE
        ]
        if differing:
            found.append(Mismatch(
                "oracle:bruteforce", "errors",
                f"per-FD errors differ from definitional recomputation on "
                f"{len(differing)} dependencies: {differing[:5]!r}",
            ))

    if scenario.epsilon == 0.0:
        fdep = discover_fds_fdep(relation, scenario.max_lhs_size)
        fdep_pairs = tuple(sorted((fd.lhs, fd.rhs) for fd in fdep))
        if fdep_pairs != reference.fds:
            missing = set(fdep_pairs) - set(reference.fds)
            extra = set(reference.fds) - set(fdep_pairs)
            found.append(Mismatch(
                "oracle:fdep", "fds",
                f"cover differs from FDEP: TANE lacks {sorted(missing)!r}, "
                f"TANE adds {sorted(extra)!r}",
            ))
    return found


def compare_topk(
    relation: Relation,
    scenario: Scenario,
    reference: RunSignature,
    k: int,
) -> list[Mismatch]:
    """Check the top-k strategy against a rank-truncation of the
    reference run.

    The top-k contract is purely derivational: its result must equal
    the full cover's k best dependencies under the strategy's total
    order (error, then lhs size, then lexicographic masks).  Computing
    that expectation from the already-verified reference signature
    makes the early-stopping cutoff itself the only thing under test.
    """
    rank = lambda triple: (triple[2], _bitset.popcount(triple[0]), triple[0], triple[1])
    expected = sorted(reference.errors, key=rank)[:k]
    result = discover(relation, TaneConfig(
        epsilon=scenario.epsilon,
        measure=scenario.measure,
        max_lhs_size=scenario.max_lhs_size,
        strategy="topk",
        top_k=k,
    ))
    actual = sorted(
        ((fd.lhs, fd.rhs, fd.error) for fd in result.dependencies), key=rank
    )
    if actual != expected:
        return [Mismatch(
            "strategy:topk", "fds",
            f"top-{k} result differs from the rank-truncated full cover: "
            f"expected {expected!r}, got {actual!r}",
        )]
    return []


def _after_first_snapshot():
    """Accept the first ``node_batch`` open record after the walk's
    first mid-walk snapshot.

    The node engine snapshots once per
    :attr:`~repro.search.scheduler.NodeEngine.SNAPSHOT_TESTS` validity
    tests, right after closing the batch that completes them, so the
    next batch's open record is the earliest interrupt that finds a
    checkpoint on disk.  Walks that end before it simply complete on
    the first attempt.
    """
    snapshotted = False

    def at(span) -> bool:
        nonlocal snapshotted
        if span.name != "node_batch":
            return False
        if span.end is None:
            return snapshotted
        snapshotted = span.attributes["tests_total"] >= NodeEngine.SNAPSHOT_TESTS
        return False
    return at


_DFD_VARIANTS = (
    # (variant suffix, engine, store, spilly store options, checkpointed)
    ("", "vectorized", "memory", (), False),
    ("pure", "pure", "memory", (), False),
    ("disk", "vectorized", "disk",
     (("resident_budget_bytes", 1), ("min_spill_bytes", 0)), False),
    ("checkpoint", "vectorized", "memory", (), True),
)
"""Execution shapes the dfd walk is verified under: both partition
engines, the spill-everything disk store, and an interrupted-then-
resumed checkpoint cycle."""


def compare_strategy_dfd(
    relation: Relation,
    scenario: Scenario,
    reference: RunSignature,
    seed: int,
    *,
    workdir: str | Path,
) -> list[Mismatch]:
    """Check the dfd random walk against the reference cover.

    DFD's contract is completeness: whatever order the seeded walk
    visits the lattice in, the minimal cover (and each dependency's
    error) must equal the levelwise reference exactly.  The walk is
    exercised under every shape in :data:`_DFD_VARIANTS` — both
    engines, the spilly disk store, and a checkpoint interrupt/resume
    cycle — all with the same seed, so a mismatch names the shape that
    diverged.  Counters are *not* compared: the traversal order is the
    strategy's own business.

    Scenarios on non-monotone measures are skipped — the configuration
    layer rejects them for dfd by design (subset-order verdict sharing
    would be unsound).
    """
    if scenario.measure in NON_MONOTONE_MEASURES:
        return []
    found: list[Mismatch] = []
    for suffix, engine, store, store_options, checkpointed in _DFD_VARIANTS:
        name = "compare_strategy:dfd" + (f"-{suffix}" if suffix else "")
        base = dict(
            epsilon=scenario.epsilon,
            measure=scenario.measure,
            max_lhs_size=scenario.max_lhs_size,
            strategy="dfd",
            dfd_seed=seed,
            engine=engine,
            store=store,
            store_options=store_options,
        )
        if checkpointed:
            checkpoint_dir = Path(workdir) / "checkpoint-dfd"
            if checkpoint_dir.exists():
                shutil.rmtree(checkpoint_dir)
            try:
                result = discover(relation, TaneConfig(
                    **base,
                    checkpoint_dir=checkpoint_dir,
                    tracer=Tracer(sinks=[_Interrupt(_after_first_snapshot())]),
                ))
            except _VerifyInterrupt:
                result = discover(relation, TaneConfig(
                    **base, checkpoint_dir=checkpoint_dir, resume=True,
                ))
        else:
            result = discover(relation, TaneConfig(**base))
        actual_fds = tuple(sorted((fd.lhs, fd.rhs) for fd in result.dependencies))
        if actual_fds != reference.fds:
            missing = set(reference.fds) - set(actual_fds)
            extra = set(actual_fds) - set(reference.fds)
            found.append(Mismatch(
                name, "fds",
                f"dfd cover (seed={seed}, engine={engine}, store={store}"
                f"{', resumed' if checkpointed else ''}) differs from "
                f"levelwise: {len(missing)} missing, {len(extra)} extra "
                f"(missing={sorted(missing)!r}, extra={sorted(extra)!r})",
            ))
        else:
            actual_errors = tuple(_fd_triples(result.dependencies))
            if actual_errors != reference.errors:
                differing = [
                    (ours, theirs)
                    for ours, theirs in zip(reference.errors, actual_errors)
                    if ours != theirs
                ]
                found.append(Mismatch(
                    name, "errors",
                    f"dfd per-FD errors (seed={seed}, engine={engine}, "
                    f"store={store}) differ on {len(differing)} "
                    f"dependencies: {differing[:5]!r}",
                ))
    return found


@dataclass
class VerificationReport:
    """The outcome of one :func:`verify_relation` call."""

    scenario: Scenario
    """The shared discovery problem."""

    reference: RunSignature
    """The reference cell's signature (what everything was diffed against)."""

    cell_names: list[str] = field(default_factory=list)
    """Every cell that ran, in order."""

    mismatches: list[Mismatch] = field(default_factory=list)
    """All detected disagreements (empty ⇔ the relation verified clean)."""

    traces: dict = field(default_factory=dict)
    """Tracer per traced cell name, for the trace-aware mismatch report."""

    @property
    def ok(self) -> bool:
        """True when no cell, oracle, or metamorphic check disagreed."""
        return not self.mismatches


def verify_relation(
    relation: Relation,
    scenario: Scenario,
    cells,
    *,
    workdir: str | Path,
    oracles: bool = True,
    topk: int | None = None,
    dfd_seed: int | None = None,
) -> VerificationReport:
    """Run the full differential matrix over one relation.

    The first cell of ``cells`` is the reference (conventionally
    :data:`~repro.verify.matrix.REFERENCE_CELL`); every later cell is
    diffed against it along its declared dimensions, and the reference
    itself is checked against the independent oracles unless
    ``oracles=False`` (the metamorphic layer disables them for
    transformed relations it compares structurally instead).  With
    ``topk`` set, a top-k strategy run is additionally checked against
    the rank-truncation of the reference cover (:func:`compare_topk`);
    with ``dfd_seed`` set, the dfd walk is checked for cover equality
    under every execution shape (:func:`compare_strategy_dfd`).
    """
    cells = list(cells) or [REFERENCE_CELL]
    reference_run = run_cell(relation, scenario, cells[0], workdir=workdir)
    report = VerificationReport(
        scenario=scenario,
        reference=reference_run.signature,
        cell_names=[cells[0].name],
    )
    if reference_run.result.trace is not None:
        report.traces[cells[0].name] = reference_run.result.trace
    for cell in cells[1:]:
        run = run_cell(relation, scenario, cell, workdir=workdir)
        report.cell_names.append(cell.name)
        if run.result.trace is not None:
            report.traces[cell.name] = run.result.trace
        report.mismatches.extend(
            reference_run.signature.diff(run.signature, cell.compare, cell.name)
        )
    if oracles:
        report.mismatches.extend(
            compare_with_oracles(relation, scenario, reference_run.signature)
        )
    if topk is not None:
        report.cell_names.append("strategy:topk")
        report.mismatches.extend(
            compare_topk(relation, scenario, reference_run.signature, topk)
        )
    if dfd_seed is not None:
        report.cell_names.append("compare_strategy:dfd")
        report.mismatches.extend(compare_strategy_dfd(
            relation, scenario, reference_run.signature, dfd_seed,
            workdir=workdir,
        ))
    return report
