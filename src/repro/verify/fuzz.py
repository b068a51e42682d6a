"""Seeded fuzzing over the differential and metamorphic layers.

Each seed deterministically derives a relation (from the synthetic
generator zoo, degenerate shapes included), a scenario (threshold,
measure, lhs limit), and runs the full verification stack on it: the
config-matrix differential diff, the oracle comparison, the
metamorphic transformations, and planted-dependency recovery.

When a seed finds a mismatch the driver *shrinks* it: ddmin-style row
chunk removal followed by column removal, keeping each reduction only
while the original mismatch (same disagreeing party, same dimension)
still reproduces.  The minimized case is serialized to a
self-contained directory under the failure dir —

* ``case.json`` — seed, scenario, cells, the mismatches, and the
  shrunk relation itself (attribute names + rows), so a case replays
  with no other input;
* ``relation.csv`` — the same relation as CSV for eyeballing and for
  feeding back into ``repro discover`` (written only when at least one
  row survived shrinking).

:func:`replay_case` re-runs a serialized case and returns whatever
mismatches still reproduce — the loop a bug-fixer needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.datasets.csvio import write_csv
from repro.datasets.synthetic import (
    DEGENERATE_KINDS,
    correlated_relation,
    degenerate_relation,
    planted_fd_relation,
    random_relation,
    zipf_relation,
)
from repro.model.relation import Relation
from repro.verify.matrix import ConfigCell, build_matrix
from repro.verify.metamorphic import (
    check_planted_recovery,
    compare_measures,
    run_metamorphic,
)
from repro.verify.runner import Mismatch, Scenario, verify_relation

__all__ = [
    "FuzzFailure",
    "FuzzReport",
    "relation_for_seed",
    "scenario_for_seed",
    "fuzz_seed",
    "fuzz",
    "shrink_failure",
    "save_case",
    "replay_case",
]

_EPSILONS = (0.0, 0.0, 0.0, 0.05, 0.1, 0.25)
"""Scenario threshold pool; exact discovery is deliberately
over-represented (it is the configuration every benchmark uses)."""

_MAX_SHRINK_EVALUATIONS = 150
"""Upper bound on predicate re-runs during one shrink."""

_FUZZ_TOPK = 3
"""``k`` for the top-k strategy check every fuzz seed runs: small
enough to exercise the early-stopping cutoff on most relations, large
enough that ranking ties matter."""

_ALT_MEASURES = ("g1", "g2", "pdep", "tau", "mu_plus", "fi", "rfi")
"""Non-``g3`` measure pool for approximate scenarios — the whole
registry minus the default, so every measure gets differential/
metamorphic coverage across a fuzz campaign."""

_MEASURE_EPSILON = 0.25
"""Threshold used by the cross-measure layer when the seed's own
scenario is exact (with ``epsilon = 0`` every measure degenerates to
exact discovery and the comparison would be vacuous)."""


def _measure_epsilon(scenario: Scenario) -> float:
    """The threshold the cross-measure layer should run at for a seed."""
    return scenario.epsilon if scenario.epsilon > 0.0 else _MEASURE_EPSILON


def relation_for_seed(seed: int) -> tuple[Relation, str]:
    """Derive the fuzz relation for a seed, plus a description string.

    Relations stay small (≤ ~40 rows, ≤ 5 columns) so the exhaustive
    bruteforce oracle remains cheap; the generator pool mixes uniform,
    skewed, correlated, planted, and degenerate shapes (empty, single
    row, single column, all-constant) because the engines' edge cases
    live at the degenerate end.
    """
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(8, 41))
    columns = int(rng.integers(2, 6))
    domain = int(rng.integers(2, 5))
    kind = int(rng.integers(0, 8))
    if kind <= 1:
        return (
            random_relation(rows, columns, domain, seed=seed),
            f"random({rows}x{columns}, domain={domain})",
        )
    if kind == 2:
        return (
            zipf_relation(rows, columns, domain_size=domain + 2, seed=seed),
            f"zipf({rows}x{columns}, domain={domain + 2})",
        )
    if kind <= 4:
        return (
            correlated_relation(
                rows, columns, num_factors=2, noise=0.1,
                domain_size=domain + 2, seed=seed,
            ),
            f"correlated({rows}x{columns}, domain={domain + 2})",
        )
    if kind == 5:
        dependent = max(1, columns - 2)
        relation, _ = planted_fd_relation(rows, 2, dependent, seed=seed)
        return relation, f"planted({rows} rows, 2+{dependent} columns)"
    if kind == 6:
        shape = DEGENERATE_KINDS[int(rng.integers(0, len(DEGENERATE_KINDS)))]
        relation = degenerate_relation(shape, rows, columns, domain, seed=seed)
        return relation, f"{shape}({relation.num_rows}x{relation.num_attributes})"
    return (
        random_relation(rows, columns, 2, seed=seed),
        f"binary({rows}x{columns})",
    )


def scenario_for_seed(seed: int) -> Scenario:
    """Derive the scenario for a seed.

    An independent RNG stream (``seed`` xor a constant) keeps the
    scenario decorrelated from the relation shape.  Non-``g3`` measures
    appear only with a positive threshold — with ``epsilon = 0`` all
    measures degenerate to exact discovery.
    """
    rng = np.random.default_rng(seed ^ 0x5EED)
    epsilon = float(_EPSILONS[int(rng.integers(0, len(_EPSILONS)))])
    measure = "g3"
    if epsilon > 0.0 and int(rng.integers(0, 2)) == 0:
        measure = _ALT_MEASURES[int(rng.integers(0, len(_ALT_MEASURES)))]
    max_lhs_size = None if int(rng.integers(0, 4)) else 3
    return Scenario(epsilon=epsilon, measure=measure, max_lhs_size=max_lhs_size)


@dataclass(frozen=True)
class FuzzFailure:
    """One seed that found a mismatch (minimized and serialized)."""

    seed: int
    """The failing seed."""

    generator: str
    """Description of the relation generator used."""

    target: Mismatch
    """The mismatch the shrinker minimized against (the first found)."""

    mismatches: tuple
    """Every mismatch the unshrunk run reported."""

    case_dir: Path | None
    """Serialized minimized case, or ``None`` when serialization was off."""


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz campaign."""

    seeds: list = field(default_factory=list)
    """Every seed that ran."""

    failures: list = field(default_factory=list)
    """:class:`FuzzFailure` per failing seed."""

    @property
    def ok(self) -> bool:
        """True when every seed verified clean."""
        return not self.failures


def _target_persists(mismatches, target: Mismatch) -> bool:
    """Does the shrinker's target mismatch recur in a recheck?"""
    return any(
        m.cell == target.cell and m.dimension == target.dimension
        for m in mismatches
    )


def _make_recheck(scenario: Scenario, cells, target: Mismatch, seed: int, workdir):
    """Build the shrink predicate: "does ``target`` reproduce on this relation?".

    Differential and oracle targets re-run only the reference plus the
    disagreeing cell; metamorphic targets re-run the metamorphic layer;
    cross-measure targets re-run :func:`compare_measures` restricted to
    the one measure named in the cell.  Relations that crash the
    recheck count as non-reproducing — the shrinker minimizes the
    *mismatch*, not whatever new failure a reduction introduced.
    """
    if target.cell.startswith("compare_measures:"):
        measure = target.cell.split(":")[1]

        def recheck(relation: Relation) -> bool:
            try:
                found = compare_measures(
                    relation, seed=seed, workdir=workdir,
                    epsilon=_measure_epsilon(scenario), measures=(measure,),
                )
            except Exception:
                return False
            return _target_persists(found, target)
        return recheck

    if target.cell.startswith("metamorphic:"):
        def recheck(relation: Relation) -> bool:
            try:
                found = run_metamorphic(relation, scenario, seed=seed, workdir=workdir)
            except Exception:
                return False
            return _target_persists(found, target)
        return recheck

    needed = [cells[0]]
    needed.extend(cell for cell in cells[1:] if cell.name == target.cell)
    oracles = target.cell.startswith("oracle:")
    # Strategy targets need only the reference run plus the strategy
    # comparison itself; oracles contribute nothing to the recheck.
    topk = _FUZZ_TOPK if target.cell.startswith("strategy:") else None
    dfd_seed = seed if target.cell.startswith("compare_strategy:") else None

    def recheck(relation: Relation) -> bool:
        try:
            report = verify_relation(
                relation, scenario, needed,
                workdir=workdir, oracles=oracles, topk=topk,
                dfd_seed=dfd_seed,
            )
        except Exception:
            return False
        return _target_persists(report.mismatches, target)

    return recheck


def shrink_failure(relation: Relation, recheck, *, max_evaluations: int = _MAX_SHRINK_EVALUATIONS) -> Relation:
    """Minimize ``relation`` while ``recheck`` keeps reproducing.

    ddmin-lite: repeatedly try dropping contiguous row chunks (halving
    the chunk size down to single rows), then try dropping whole
    columns (never below one).  Every accepted reduction restarts the
    current granularity.  The total number of ``recheck`` evaluations
    is bounded, so a stubborn failure costs bounded time.
    """
    evaluations = 0

    def attempt(candidate: Relation) -> bool:
        nonlocal evaluations
        if evaluations >= max_evaluations:
            return False
        evaluations += 1
        return recheck(candidate)

    chunk = max(1, relation.num_rows // 2)
    while chunk >= 1:
        start = 0
        while start < relation.num_rows:
            keep = list(range(0, start)) + list(range(start + chunk, relation.num_rows))
            candidate = relation.take(keep)
            if attempt(candidate):
                relation = candidate
            else:
                start += chunk
        chunk //= 2

    column = 0
    while column < relation.num_attributes and relation.num_attributes > 1:
        keep = [i for i in range(relation.num_attributes) if i != column]
        candidate = relation.project(keep)
        if attempt(candidate):
            relation = candidate
        else:
            column += 1
    return relation


def _jsonable(value):
    """Coerce a relation value to a JSON-representable equivalent."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return str(value)


def save_case(
    directory: str | Path,
    *,
    seed: int,
    generator: str,
    relation: Relation,
    scenario: Scenario,
    cells,
    target: Mismatch,
    mismatches,
) -> Path:
    """Serialize one minimized failure as a self-contained case dir.

    ``case.json`` carries everything replay needs (the relation rides
    along as attribute names + rows); ``relation.csv`` is written
    alongside for humans whenever at least one row survived.
    """
    slug = target.cell.replace(":", "-").replace("/", "-")
    case_dir = Path(directory) / f"case-{seed:08d}-{slug}"
    case_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "seed": seed,
        "generator": generator,
        "scenario": scenario.describe(),
        "cells": [cell.describe() for cell in cells],
        "target": target.describe(),
        "mismatches": [m.describe() for m in mismatches],
        "relation": {
            "attribute_names": list(relation.schema.attribute_names),
            "rows": [[_jsonable(v) for v in row] for row in relation.iter_rows()],
        },
    }
    (case_dir / "case.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    if relation.num_rows:
        write_csv(relation, case_dir / "relation.csv")
    return case_dir


def replay_case(case_dir: str | Path, *, workdir: str | Path) -> list[Mismatch]:
    """Re-run a serialized case; returns the mismatches that still reproduce.

    An empty list means the bug the case captured is fixed.
    """
    case_dir = Path(case_dir)
    payload = json.loads((case_dir / "case.json").read_text(encoding="utf-8"))
    data = payload["relation"]
    relation = Relation.from_rows(
        [tuple(row) for row in data["rows"]], data["attribute_names"]
    )
    scenario = Scenario.from_description(payload["scenario"])
    cells = [ConfigCell.from_description(d) for d in payload["cells"]]
    target = Mismatch(**payload["target"])
    seed = payload["seed"]
    if target.cell == "metamorphic:planted":
        # Planted-recovery cases regenerate their relation from the seed.
        return check_planted_recovery(seed, workdir=workdir)
    if target.cell.startswith("compare_measures:"):
        # Cross-measure cases re-run the whole cross-measure layer for
        # the one measure the cell names (planted sub-cells regenerate
        # their relation from the seed inside compare_measures).
        measure = target.cell.split(":")[1]
        return list(compare_measures(
            relation, seed=seed, workdir=workdir,
            epsilon=_measure_epsilon(scenario), measures=(measure,),
        ))
    if target.cell.startswith("metamorphic:"):
        return run_metamorphic(relation, scenario, seed=seed, workdir=workdir)
    oracles = target.cell.startswith("oracle:")
    topk = _FUZZ_TOPK if target.cell.startswith("strategy:") else None
    dfd_seed = seed if target.cell.startswith("compare_strategy:") else None
    needed = [cells[0]] + [c for c in cells[1:] if c.name == target.cell]
    report = verify_relation(
        relation, scenario, needed, workdir=workdir, oracles=oracles,
        topk=topk, dfd_seed=dfd_seed,
    )
    return report.mismatches


def fuzz_seed(
    seed: int,
    cells,
    *,
    workdir: str | Path,
    failure_dir: str | Path | None = None,
    metamorphic: bool = True,
    measure_checks: bool = True,
) -> FuzzFailure | None:
    """Run the whole verification stack for one seed.

    Returns ``None`` on a clean seed; otherwise shrinks the first
    mismatch, serializes the minimized case (when ``failure_dir`` is
    given), and returns the :class:`FuzzFailure`.
    """
    relation, generator = relation_for_seed(seed)
    scenario = scenario_for_seed(seed)
    report = verify_relation(
        relation, scenario, cells, workdir=workdir, topk=_FUZZ_TOPK,
        dfd_seed=seed,
    )
    mismatches = list(report.mismatches)
    if metamorphic:
        mismatches.extend(run_metamorphic(
            relation, scenario, seed=seed, workdir=workdir,
            reference=report.reference,
        ))
        mismatches.extend(check_planted_recovery(seed, workdir=workdir))
    if measure_checks:
        mismatches.extend(compare_measures(
            relation, seed=seed, workdir=workdir,
            epsilon=_measure_epsilon(scenario),
        ))
    if not mismatches:
        return None

    target = mismatches[0]
    shrunk = relation
    planted = (
        target.cell.startswith("metamorphic:planted")
        or (target.cell.startswith("compare_measures:")
            and target.cell.endswith(":planted"))
    )
    if not planted:
        # Planted-recovery checks regenerate their relation from the
        # seed, so relation shrinking cannot target them.
        recheck = _make_recheck(scenario, cells, target, seed, workdir)
        shrunk = shrink_failure(relation, recheck)
    case_dir = None
    if failure_dir is not None:
        case_dir = save_case(
            failure_dir,
            seed=seed,
            generator=generator,
            relation=shrunk,
            scenario=scenario,
            cells=cells,
            target=target,
            mismatches=mismatches,
        )
    return FuzzFailure(
        seed=seed,
        generator=generator,
        target=target,
        mismatches=tuple(mismatches),
        case_dir=case_dir,
    )


def fuzz(
    num_seeds: int,
    *,
    matrix: str = "smoke",
    seed_base: int = 0,
    workdir: str | Path,
    failure_dir: str | Path | None = None,
    metamorphic: bool = True,
    measure_checks: bool = True,
    progress=None,
) -> FuzzReport:
    """Run a fuzz campaign over ``num_seeds`` consecutive seeds.

    ``matrix`` picks the cell set (``"smoke"`` or ``"full"``);
    ``seed_base`` offsets the seed range so campaigns can be sharded;
    ``measure_checks`` toggles the cross-measure layer
    (:func:`repro.verify.metamorphic.compare_measures`).
    ``progress``, when given, is called after each seed with
    ``(seed, failure_or_none)``.
    """
    cells = build_matrix(matrix)
    report = FuzzReport()
    for seed in range(seed_base, seed_base + num_seeds):
        failure = fuzz_seed(
            seed, cells,
            workdir=workdir, failure_dir=failure_dir, metamorphic=metamorphic,
            measure_checks=measure_checks,
        )
        report.seeds.append(seed)
        if failure is not None:
            report.failures.append(failure)
        if progress is not None:
            progress(seed, failure)
    return report
