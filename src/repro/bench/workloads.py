"""One workload per table/figure of the paper's evaluation (Section 7).

Every ``run_*`` function builds its datasets, runs the measured
algorithms, and returns a :class:`~repro.bench.report.Table` (or dict
of :class:`~repro.bench.report.Series`) whose rows mirror the paper's,
quoting the paper's published numbers side-by-side.  Absolute times are
not comparable (C on a 1998 Pentium vs pure Python today); the
reproduction targets are the *shapes*: who wins, the scaling exponents,
and the ε-behaviour.  See EXPERIMENTS.md for the recorded comparison.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

from repro import _bitset
from repro.baselines.fdep import discover_fds_fdep
from repro.bench.harness import BenchScale, measure, resolve_scale
from repro.bench.report import Series, Table
from repro.core.tane import TaneConfig, discover
from repro.datasets.chess import krk_endgame_relation
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.exceptions import ConfigurationError
from repro.datasets.uci import (
    make_adult_like,
    make_hepatitis_like,
    make_lymphography_like,
    make_wisconsin_like,
)
from repro.model.relation import Relation
from repro.partition.pure import PurePartition
from repro.partition.vectorized import (
    CsrPartition,
    LevelBlock,
    PartitionWorkspace,
    batched_products,
)
from repro.search.execution import _PRODUCT_BATCH, SerialExecution

__all__ = [
    "run_table1",
    "run_table2",
    "run_table3",
    "run_figure3",
    "run_figure4",
    "run_ablation_pruning",
    "run_ablation_engine",
    "run_ablation_g3_bounds",
    "run_ablation_strategy",
    "FromSingletonsExecutor",
]

INFEASIBLE = "*"

# Paper-reported values (Table 1): dataset -> (|r|, |R|, N, TANE s, TANE/MEM s, FDEP s)
PAPER_TABLE1: dict[str, tuple[int, int, int, object, object, object]] = {
    "lymphography": (148, 19, 2730, 68.2, 24.0, 88.0),
    "hepatitis": (155, 20, 8250, 29.6, 14.1, 663.0),
    "wisconsin": (699, 11, 46, 0.76, 0.25, 15.0),
    "wisconsin x64": (44736, 11, 46, 80.5, 23.0, 17521.0),
    "wisconsin x128": (89472, 11, 46, 173.0, 247.0, INFEASIBLE),
    "wisconsin x512": (357888, 11, 46, 884.0, INFEASIBLE, INFEASIBLE),
    "adult": (48842, 15, 85, 1451.0, INFEASIBLE, INFEASIBLE),
    "chess": (28056, 7, 1, 3.63, 2.03, 6685.0),
}

# Paper-reported values (Table 2, TANE/MEM): dataset -> {eps: (N, seconds)}
PAPER_TABLE2: dict[str, dict[float, tuple[int, float]]] = {
    "lymphography": {0.0: (2730, 89.1), 0.01: (3388, 22.2), 0.05: (7031, 4.89), 0.25: (578, 0.32), 0.5: (21, 0.01)},
    "hepatitis": {0.0: (8250, 16.6), 0.01: (9666, 14.6), 0.05: (6617, 9.27), 0.25: (350, 0.06), 0.5: (160, 0.01)},
    "wisconsin": {0.0: (46, 0.28), 0.01: (113, 0.27), 0.05: (126, 0.23), 0.25: (181, 0.12), 0.5: (18, 0.02)},
    "wisconsin x64": {0.0: (46, 25.5), 0.01: (113, 26.7), 0.05: (126, 20.3), 0.25: (181, 12.6), 0.5: (18, 3.89)},
    "chess": {0.0: (1, 1.99), 0.01: (1, 2.55), 0.05: (1, 3.10), 0.25: (2, 4.0), 0.5: (17, 3.59)},
}

# Paper Table 3 literature rows: (database, |r|, |R|, |X| limit, N, source, seconds)
PAPER_TABLE3_LITERATURE: list[tuple[str, int, int, int, int, str, object]] = [
    ("lymphography*", 150, 19, 7, 641, "Bell et al [1]", "> 33 h"),
    ("lymphography*", 150, 19, 7, 641, "Fdep [17]", 540.0),
    ("lymphography", 148, 19, 19, 2730, "Fdep [17]", 88.0),
    ("lymphography", 148, 19, 19, 2730, "TANE", 68.2),
    ("rel1", 7, 7, 7, 8, "Bitton et al [2]", 0.02),
    ("rel6", 236, 60, 60, 56, "Bitton et al [2]", 994.0),
    ("wisconsin", 699, 11, 4, 35, "Bell et al [1]", 259.0),
    ("wisconsin", 699, 11, 4, 35, "Fdep [17]", 15.0),
    ("wisconsin", 699, 11, 4, 35, "Schlimmer [19]", 4440.0),
    ("wisconsin", 699, 11, 4, 35, "TANE", 0.34),
    ("wisconsin", 699, 11, 11, 46, "Bell et al [1]", 533.0),
    ("wisconsin", 699, 11, 11, 46, "Fdep [17]", 15.0),
    ("wisconsin", 699, 11, 11, 46, "TANE", 0.76),
    ("wisconsin x128", 89472, 11, 11, 46, "Fdep [17]", INFEASIBLE),
    ("wisconsin x128", 89472, 11, 11, 46, "TANE", 173.0),
    ("books", 9931, 9, 9, 25, "Bell et al [1]", 17040.0),
]

_DATASET_CACHE: dict[tuple[str, int], Relation] = {}


def _dataset(name: str, scale: BenchScale, seed: int = 0) -> Relation:
    """Build (and cache per process) the named benchmark dataset.

    When the real UCI files are available (``REPRO_UCI_DIR``), they are
    used; otherwise the schema-matched synthetics (see DESIGN.md).
    """
    key = (name, scale.adult_rows if name == "adult" else 0)
    cached = _DATASET_CACHE.get(key)
    if cached is not None:
        return cached
    from repro.datasets.uci import find_real_uci, load_uci_file

    real = find_real_uci(name)
    if real is not None:
        relation = load_uci_file(name, real)
        _DATASET_CACHE[key] = relation
        return relation
    builders: dict[str, Callable[[], Relation]] = {
        "lymphography": lambda: make_lymphography_like(seed=seed),
        "hepatitis": lambda: make_hepatitis_like(seed=seed),
        "wisconsin": lambda: make_wisconsin_like(seed=seed),
        "adult": lambda: make_adult_like(seed=seed, num_rows=scale.adult_rows),
        "chess": krk_endgame_relation,
    }
    relation = builders[name]()
    _DATASET_CACHE[key] = relation
    return relation


def _run_tane(relation: Relation, store: str, **config: object):
    return measure(lambda: discover(relation, TaneConfig(store=store, **config)))  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Table 1: exact discovery, TANE vs TANE/MEM vs FDEP
# ----------------------------------------------------------------------

def run_table1(scale: str | BenchScale | None = None) -> Table:
    """Reproduce Table 1: wall time and N on the benchmark datasets.

    At quick scale the replication multiples are reduced and FDEP is
    capped (it is Ω(|r|²)); capped cells are reported ``*`` exactly
    like the paper's infeasible entries.
    """
    scale = resolve_scale(scale)
    table = Table(
        title=f"Table 1 (scale={scale.name}): performance on the benchmark datasets",
        columns=[
            "dataset", "|r|", "|R|", "N",
            "TANE s", "TANE/MEM s", "FDEP s",
            "paper N", "paper TANE s", "paper TANE/MEM s", "paper FDEP s",
        ],
    )
    rows: list[tuple[str, Relation]] = []
    for name in scale.table1_datasets:
        rows.append((name, _dataset(name, scale)))
        if name == "wisconsin":
            wisconsin = _dataset("wisconsin", scale)
            for multiple in scale.wbc_multiples:
                if multiple == 1:
                    continue
                rows.append(
                    (f"wisconsin x{multiple}", replicate_with_unique_suffix(wisconsin, multiple))
                )

    for label, relation in rows:
        paper = PAPER_TABLE1.get(label, (None, None, None, None, None, None))
        if relation.num_rows > scale.tane_row_cap:
            table.add_row(label, relation.num_rows, relation.num_attributes,
                          INFEASIBLE, INFEASIBLE, INFEASIBLE, INFEASIBLE,
                          paper[2], paper[3], paper[4], paper[5])
            continue
        disk = _run_tane(relation, "disk")
        mem = _run_tane(relation, "memory")
        if relation.num_rows <= scale.fdep_row_cap:
            fdep_seconds: object = measure(lambda: discover_fds_fdep(relation)).seconds
        else:
            fdep_seconds = INFEASIBLE
        table.add_row(
            label, relation.num_rows, relation.num_attributes, len(mem.result),
            disk.seconds, mem.seconds, fdep_seconds,
            paper[2], paper[3], paper[4], paper[5],
        )
    table.add_note(
        "paper columns quote Huhtala et al. (ICDE 1998), C implementation on a "
        "233 MHz Pentium; datasets here are schema-matched synthetics (see DESIGN.md)"
    )
    table.add_note(f"FDEP capped at {scale.fdep_row_cap} rows at this scale ('*')")
    return table


# ----------------------------------------------------------------------
# Table 2: approximate discovery across epsilon (TANE/MEM)
# ----------------------------------------------------------------------

def run_table2(scale: str | BenchScale | None = None) -> Table:
    """Reproduce Table 2: N and time for ε in {0, .01, .05, .25, .5}."""
    scale = resolve_scale(scale)
    table = Table(
        title=f"Table 2 (scale={scale.name}): TANE/MEM approximate discovery",
        columns=["dataset", "eps", "N", "time s", "paper N", "paper time s"],
    )
    replicated_multiple = max(scale.wbc_multiples)
    datasets: list[tuple[str, Relation]] = []
    for name in scale.table2_datasets:
        if name == "wisconsin xN":
            wisconsin = _dataset("wisconsin", scale)
            datasets.append(
                (
                    f"wisconsin x{replicated_multiple}",
                    replicate_with_unique_suffix(wisconsin, replicated_multiple),
                )
            )
        else:
            datasets.append((name, _dataset(name, scale)))
    for label, relation in datasets:
        paper_by_eps = PAPER_TABLE2.get(label, {})
        # ``wisconsin xN`` quick-scale rows compare against the paper's x64.
        if not paper_by_eps and label.startswith("wisconsin x"):
            paper_by_eps = PAPER_TABLE2["wisconsin x64"]
        for epsilon in scale.approx_epsilons:
            run = _run_tane(relation, "memory", epsilon=epsilon)
            paper_n, paper_seconds = paper_by_eps.get(epsilon, (None, None))
            table.add_row(label, epsilon, len(run.result), run.seconds, paper_n, paper_seconds)
    table.add_note("paper's approximate runs use TANE/MEM; so do these")
    return table


# ----------------------------------------------------------------------
# Table 3: comparison including previously published results
# ----------------------------------------------------------------------

def run_table3(scale: str | BenchScale | None = None) -> Table:
    """Reproduce Table 3: measured TANE/FDEP plus quoted literature rows.

    The third-party systems (Bell & Brockhausen, Bitton et al.,
    Schlimmer) and their private datasets are unavailable; exactly like
    the paper, their rows quote the published numbers (marked
    ``quoted``).  TANE and FDEP rows are measured, including the
    ``|X|`` left-hand-side size limit the paper applies to the
    Wisconsin runs.
    """
    scale = resolve_scale(scale)
    table = Table(
        title=f"Table 3 (scale={scale.name}): measured vs previously reported results",
        columns=["database", "|r|", "|R|", "|X|", "algorithm", "time s", "N", "kind"],
    )
    wisconsin = _dataset("wisconsin", scale)
    measured: list[tuple[str, Relation, int | None]] = [
        ("wisconsin", wisconsin, 4),
        ("wisconsin", wisconsin, None),
    ]
    if "lymphography" in scale.table1_datasets:
        measured.append(("lymphography", _dataset("lymphography", scale), None))
    for label, relation, lhs_limit in measured:
        limit = lhs_limit if lhs_limit is not None else relation.num_attributes
        tane = _run_tane(relation, "disk", max_lhs_size=lhs_limit)
        table.add_row(label, relation.num_rows, relation.num_attributes, limit,
                      "TANE", tane.seconds, len(tane.result), "measured")
        if relation.num_rows <= scale.fdep_row_cap:
            fdep = measure(lambda: discover_fds_fdep(relation, max_lhs_size=lhs_limit))
            table.add_row(label, relation.num_rows, relation.num_attributes, limit,
                          "FDEP", fdep.seconds, len(fdep.result), "measured")
    for database, r, R, x, n, source, seconds in PAPER_TABLE3_LITERATURE:
        table.add_row(database, r, R, x, source, seconds, n, "quoted")
    table.add_note("'quoted' rows reproduce the paper's Table 3 citations verbatim")
    return table


# ----------------------------------------------------------------------
# Figure 3: relative N and time vs epsilon
# ----------------------------------------------------------------------

def run_figure3(
    scale: str | BenchScale | None = None,
    epsilons: tuple[float, ...] = (0.0, 0.01, 0.05, 0.1, 0.25, 0.5),
) -> dict[str, dict[str, Series]]:
    """Reproduce Figure 3: Nε/N0 and Timeε/Time0 for three datasets.

    Returns ``{dataset: {"n_ratio": Series, "time_ratio": Series}}``.
    """
    scale = resolve_scale(scale)
    figures: dict[str, dict[str, Series]] = {}
    for label in scale.figure3_datasets:
        relation = _dataset(label, scale)
        n_series = Series(f"{label} N_eps/N_0")
        t_series = Series(f"{label} Time_eps/Time_0")
        base_n: float | None = None
        base_t: float | None = None
        for epsilon in epsilons:
            run = _run_tane(relation, "memory", epsilon=epsilon)
            if base_n is None:
                base_n = max(1, len(run.result))
                base_t = max(1e-9, run.seconds)
            n_series.add(epsilon, len(run.result) / base_n)
            t_series.add(epsilon, run.seconds / base_t)
        figures[label] = {"n_ratio": n_series, "time_ratio": t_series}
    return figures


# ----------------------------------------------------------------------
# Figure 4: scaling with the number of rows
# ----------------------------------------------------------------------

def run_figure4(scale: str | BenchScale | None = None) -> Table:
    """Reproduce Figure 4: time vs rows on wisconsin×n for all three
    algorithms, plus fitted log-log slopes.

    The paper's finding: FDEP is near-quadratic in ``|r|``, TANE and
    TANE/MEM near-linear.  The slopes quantify the shapes.
    """
    scale = resolve_scale(scale)
    table = Table(
        title=f"Figure 4 (scale={scale.name}): scale-up in the number of rows",
        columns=["multiple", "|r|", "TANE s", "TANE/MEM s", "FDEP s"],
    )
    wisconsin = _dataset("wisconsin", scale)
    points: dict[str, list[tuple[float, float]]] = {"TANE": [], "TANE/MEM": [], "FDEP": []}
    for multiple in scale.wbc_multiples:
        relation = replicate_with_unique_suffix(wisconsin, multiple)
        if relation.num_rows > scale.tane_row_cap:
            continue
        disk = _run_tane(relation, "disk")
        mem = _run_tane(relation, "memory")
        points["TANE"].append((relation.num_rows, disk.seconds))
        points["TANE/MEM"].append((relation.num_rows, mem.seconds))
        if relation.num_rows <= scale.fdep_row_cap:
            fdep = measure(lambda: discover_fds_fdep(relation))
            points["FDEP"].append((relation.num_rows, fdep.seconds))
            fdep_cell: object = fdep.seconds
        else:
            fdep_cell = INFEASIBLE
        table.add_row(multiple, relation.num_rows, disk.seconds, mem.seconds, fdep_cell)
    for algorithm, series in points.items():
        slope = fit_loglog_slope(series)
        if slope is not None:
            tail = fit_loglog_slope(series[-2:]) if len(series) >= 2 else None
            tail_text = f", tail^{tail:.2f}" if tail is not None else ""
            table.add_note(f"{algorithm}: fitted time ~ rows^{slope:.2f}{tail_text}")
    table.add_note("paper: TANE/TANE-MEM 'very near linear', FDEP 'almost quadratic'")
    return table


def fit_loglog_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(time) against log(rows)."""
    usable = [(x, y) for x, y in points if x > 0 and y > 0]
    if len(usable) < 2:
        return None
    logs = [(math.log(x), math.log(y)) for x, y in usable]
    n = len(logs)
    mean_x = sum(x for x, _ in logs) / n
    mean_y = sum(y for _, y in logs) / n
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in logs)
    denominator = sum((x - mean_x) ** 2 for x, _ in logs)
    if denominator == 0:
        return None
    return numerator / denominator


# ----------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ----------------------------------------------------------------------

def run_ablation_pruning(scale: str | BenchScale | None = None) -> Table:
    """Effect of the paper's pruning rules on search size and time.

    Compares full TANE against the rule-8-disabled variant (plain rhs
    candidates ``C`` instead of ``C+``; the paper: "the algorithm would
    work correctly, but pruning might be less effective") and the
    key-pruning-disabled variant.
    """
    scale = resolve_scale(scale)
    table = Table(
        title=f"Ablation (scale={scale.name}): pruning rules",
        columns=["dataset", "variant", "time s", "sets s", "tests v", "N"],
    )
    for label in (d for d in ("wisconsin", "chess") if d in scale.table1_datasets or d == "wisconsin"):
        relation = _dataset(label, scale)
        variants = [
            ("full", TaneConfig()),
            ("no rule 8 (C instead of C+)", TaneConfig(use_rule8=False)),
            ("no key pruning", TaneConfig(use_key_pruning=False)),
        ]
        for name, config in variants:
            run = measure(lambda c=config: discover(relation, c))
            stats = run.result.statistics
            table.add_row(label, name, run.seconds, stats.total_sets,
                          stats.validity_tests, len(run.result))
    return table


class FromSingletonsExecutor(SerialExecution):
    """Serial executor that rebuilds every candidate from singletons.

    The paper's model of Schlimmer's decision-tree approach (Section 6):
    "roughly equivalent to computing each partition from partitions with
    respect to singletons".  A candidate of ``ℓ`` attributes costs
    ``ℓ - 1`` products of the relation's single-attribute partitions
    instead of one product of two previous-level partitions; they are
    counted in :attr:`products_computed` (the run's
    ``partition_products`` still counts one per candidate).  Both
    product paths are replaced: per-mask triples (:meth:`products`) and
    a short relation's level blocks (:meth:`level_products`, rank-only
    levels included).  A taller relation's exact run still ranks its
    last level without calling the executor, which is why
    :func:`run_ablation_strategy` refuses an lhs cap.
    """

    def __init__(self, relation: Relation) -> None:
        self._relation = relation
        self.products_computed = 0

    @functools.cached_property
    def _singletons(self) -> list[CsrPartition]:
        relation = self._relation
        return [
            CsrPartition.from_column(relation.column_codes(i), relation.num_rows)
            for i in range(relation.num_attributes)
        ]

    @functools.cached_property
    def _singleton_block(self) -> LevelBlock:
        return LevelBlock.from_columns(self._relation)

    def products(self, triples, fetch, workspace):
        """Each candidate's chain of singleton products; step *k* of
        every chain in a batch is one :func:`batched_products` call."""
        triples = list(triples)
        for start in range(0, len(triples), _PRODUCT_BATCH):
            chunk = triples[start:start + _PRODUCT_BATCH]
            chains = [_bitset.to_indices(candidate) for candidate, _x, _y in chunk]
            current = [self._singletons[indices[0]] for indices in chains]
            for step in range(1, max(map(len, chains))):
                live = [c for c, indices in enumerate(chains) if step < len(indices)]
                pairs = [(current[c], self._singletons[chains[c][step]]) for c in live]
                for c, product in zip(live, batched_products(pairs, workspace)):
                    current[c] = product
                self.products_computed += len(live)
            for (candidate, _x, _y), product in zip(chunk, current):
                yield candidate, product

    def level_products(self, factors, candidates, factor_x, factor_y, *, ranks_only=False):
        if candidates.size:
            self.products_computed += (
                (_bitset.popcount(int(candidates[0])) - 1) * int(candidates.size)
            )
        return self._singleton_block.chains(candidates, ranks_only=ranks_only)


def run_ablation_strategy(
    scale: str | BenchScale | None = None, *, max_lhs_size: int | None = None
) -> Table:
    """Pairwise partition products vs recomputation from singletons.

    Section 6 of the paper: Schlimmer's decision-tree approach "is
    roughly equivalent to computing each partition from partitions with
    respect to singletons.  It is slower by a factor O(|R|) than using
    partitions the way we do."  This ablation measures that factor.

    The walk is uncapped: with ``max_lhs_size`` an exact run over a
    relation taller than the level blocks' row limit ranks its last level
    without the executor, so the singleton products would be
    undercounted.  A cap raises :class:`ConfigurationError`.
    """
    if max_lhs_size is not None:
        raise ConfigurationError(
            "the partition-strategy ablation walks the whole lattice: under "
            f"max_lhs_size={max_lhs_size} its singleton products would be undercounted"
        )
    scale = resolve_scale(scale)
    relation = _dataset("wisconsin", scale)
    table = Table(
        title=f"Ablation (scale={scale.name}): partition strategy",
        columns=["strategy", "time s", "partition products", "N"],
    )
    pairwise = measure(lambda: discover(relation, TaneConfig()))
    table.add_row("pairwise (TANE, Lemma 3)", pairwise.seconds,
                  pairwise.result.statistics.partition_products, len(pairwise.result))
    executor = FromSingletonsExecutor(relation)
    singletons = measure(lambda: discover(relation, TaneConfig(executor=executor)))
    table.add_row("from singletons (Schlimmer-equivalent)", singletons.seconds,
                  executor.products_computed, len(singletons.result))
    table.add_note("paper: the singleton strategy is slower by a factor O(|R|)")
    return table


def run_ablation_engine(scale: str | BenchScale | None = None) -> Table:
    """Pure-Python reference partitions vs the vectorized CSR engine.

    Times the partition products for the full second level of the
    Wisconsin dataset under both engines (identical outputs are
    asserted by the test suite; this measures the speed gap the
    "compact representation" optimization buys).
    """
    scale = resolve_scale(scale)
    relation = _dataset("wisconsin", scale)
    num_rows = relation.num_rows
    table = Table(
        title=f"Ablation (scale={scale.name}): partition engine",
        columns=["engine", "level-2 products", "time s"],
    )
    pure = [PurePartition.from_column(relation.column_codes(i), num_rows)
            for i in range(relation.num_attributes)]
    csr = [CsrPartition.from_column(relation.column_codes(i), num_rows)
           for i in range(relation.num_attributes)]
    workspace = PartitionWorkspace(num_rows)
    pairs = [(i, j) for i in range(len(pure)) for j in range(i + 1, len(pure))]

    def run_pure() -> int:
        return sum(pure[i].product(pure[j]).num_classes for i, j in pairs)

    def run_csr() -> int:
        return sum(csr[i].product(csr[j], workspace).num_classes for i, j in pairs)

    pure_run = measure(run_pure)
    csr_run = measure(run_csr)
    table.add_row("pure (paper's probe-table)", len(pairs), pure_run.seconds)
    table.add_row("vectorized CSR", len(pairs), csr_run.seconds)
    if csr_run.seconds > 0:
        table.add_note(f"speedup: {pure_run.seconds / csr_run.seconds:.1f}x")
    return table


def run_ablation_g3_bounds(scale: str | BenchScale | None = None) -> Table:
    """Effect of the O(1) g3 bounds on approximate discovery.

    The extended version's optimization short-circuits validity tests
    whose lower bound already exceeds ε; this measures how many exact
    O(|r|) computations it avoids.
    """
    scale = resolve_scale(scale)
    table = Table(
        title=f"Ablation (scale={scale.name}): g3 bound short-circuit",
        columns=["dataset", "eps", "variant", "time s", "exact g3 computations", "bound rejections"],
    )
    pairs = [
        (label, 0.05)
        for label in ("hepatitis", "wisconsin")
        if label in scale.table1_datasets or label == "wisconsin"
    ]
    for label, epsilon in pairs:
        relation = _dataset(label, scale)
        for name, flag in (("bounds on", True), ("bounds off", False)):
            run = measure(
                lambda f=flag: discover(relation, TaneConfig(epsilon=epsilon, use_g3_bounds=f))
            )
            stats = run.result.statistics
            table.add_row(label, epsilon, name, run.seconds,
                          stats.g3_exact_computations, stats.g3_bound_rejections)
    return table
