"""Metamorphic checks: transformations with provable result relations.

Differential testing catches configurations disagreeing with each
other; it cannot catch a bug shared by every configuration *and* both
oracles' blind spots.  Metamorphic testing attacks from a third angle:
transform the *input* in a way whose effect on the *output* is known
exactly, and check the relation holds.

Five transformations, each with its invariant (and proof sketch):

* **Row shuffle** — partitions are sets of row-index sets, so every
  class, every product, every error, every counter is invariant.  The
  full signature must match.
* **Row duplication ×k** — every equivalence class scales by exactly
  ``k``, so every error fraction is preserved *as an IEEE double*
  (``(k·c)/(k·n)`` and ``c/n`` round the same real number) and the
  minimal cover is byte-identical.  Keys are destroyed (no row is
  unique any more) and the search's counters legitimately change, so
  only cover and errors are compared.
* **Column permutation** — the lattice is generated set-wise, so the
  search is isomorphic under attribute renaming: cover, errors, and
  keys must match *after mapping indices back through the
  permutation*, and the deterministic counters must match directly.
* **Row deletion** — the ``g3`` *removal count* (not the fraction!) of
  any fixed dependency is monotone non-increasing: deleting rows can
  only shrink the set of rows that must go.  Checked for every
  dependency of the original cover with counts recomputed from first
  principles via the pure partition engine.
* **Planted-dependency recovery** — a relation constructed around
  known dependencies
  (:func:`~repro.datasets.synthetic.planted_fd_relation`) must yield a
  cover in which every planted dependency is entailed by some minimal
  discovered one (same rhs, lhs a subset of the planted lhs).

On top of the per-configuration transformations,
:func:`compare_measures` runs the **cross-measure** relations: five
named invariants every AFD measure in the suite must satisfy
simultaneously (exact-FD agreement, zeroing under violating-row
deletion, row-shuffle invariance, column-permutation invariance, and
planted-dependency entailment).  Mismatch cells are named
``compare_measures:<measure>:<relation>`` so a fuzz failure pinpoints
both the broken measure and the broken property.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from repro import _bitset
from repro.baselines.bruteforce import dependency_error, dependency_g3
from repro.datasets.synthetic import planted_fd_relation
from repro.model.relation import Relation
from repro.partition.pure import PurePartition
from repro.search.measures import SCORE_MEASURES
from repro.verify.matrix import REFERENCE_CELL
from repro.verify.runner import Mismatch, RunSignature, Scenario, run_cell

__all__ = [
    "MEASURE_RELATIONS",
    "shuffle_rows",
    "duplicate_rows",
    "permute_columns",
    "delete_rows",
    "delete_violating_rows",
    "run_metamorphic",
    "check_planted_recovery",
    "compare_measures",
]

_FULL = frozenset({"fds", "errors", "keys", "counters"})
_COVER = frozenset({"fds", "errors"})

_DUPLICATION_EXACT = frozenset({"g3", "g1", "g2"})
"""Measures whose error fractions survive row duplication *as IEEE
doubles*: each is a single integer/integer division, and ``(k*c)/(k*n)``
rounds identically to ``c/n``.  The score measures (pdep/tau/fi &c.)
are duplication-invariant only as reals — their float sums accumulate
in a different order on the duplicated relation — so the byte-exact
duplication diff applies only to the counting measures."""


def shuffle_rows(relation: Relation, seed: int) -> Relation:
    """Reorder the rows of ``relation`` by a seeded permutation."""
    order = np.random.default_rng(seed).permutation(relation.num_rows)
    return relation.take(order)


def duplicate_rows(relation: Relation, k: int) -> Relation:
    """Repeat every row of ``relation`` ``k`` times."""
    return relation.take(np.repeat(np.arange(relation.num_rows), k))


def permute_columns(relation: Relation, seed: int) -> tuple[Relation, list[int]]:
    """Reorder the columns by a seeded permutation.

    Returns the permuted relation and the permutation ``perm`` such
    that attribute ``i`` of the result is attribute ``perm[i]`` of the
    input — exactly what :func:`_unpermute_mask` needs to map result
    bitmasks back to the original attribute numbering.
    """
    perm = [int(i) for i in np.random.default_rng(seed).permutation(relation.num_attributes)]
    return relation.project(perm), perm


def delete_rows(relation: Relation, seed: int, fraction: float = 0.3) -> Relation:
    """Drop a seeded random ``fraction`` of the rows (order preserved)."""
    rng = np.random.default_rng(seed)
    keep = rng.random(relation.num_rows) >= fraction
    return relation.take(np.flatnonzero(keep))


def _unpermute_mask(mask: int, perm: list[int]) -> int:
    """Map an attribute bitmask of a column-permuted relation back to
    the original relation's attribute numbering."""
    return _bitset.from_indices(perm[i] for i in _bitset.iter_bits(mask))


def _unpermute_signature(signature: RunSignature, perm: list[int]) -> RunSignature:
    """Rewrite a permuted run's signature in original attribute numbers."""
    return RunSignature(
        fds=tuple(sorted(
            (_unpermute_mask(lhs, perm), perm[rhs]) for lhs, rhs in signature.fds
        )),
        errors=tuple(sorted(
            (_unpermute_mask(lhs, perm), perm[rhs], error)
            for lhs, rhs, error in signature.errors
        )),
        keys=tuple(sorted(_unpermute_mask(key, perm) for key in signature.keys)),
        counters=signature.counters,
    )


def _g3_removal_count(relation: Relation, lhs_mask: int, rhs: int) -> int:
    """``g3`` removal *count* of ``X -> A``, recomputed from first
    principles with the pure partition engine."""
    n = relation.num_rows
    if n == 0:
        return 0
    pi = PurePartition.single_class(n)
    for index in _bitset.iter_bits(lhs_mask):
        pi = pi.product(PurePartition.from_column(relation.column_codes(index), n))
    refined = pi.product(PurePartition.from_column(relation.column_codes(rhs), n))
    return pi.g3_error_count(refined)


def run_metamorphic(
    relation: Relation,
    scenario: Scenario,
    *,
    seed: int,
    workdir: str | Path,
    reference: RunSignature | None = None,
) -> list[Mismatch]:
    """Run all four transformation checks on one relation.

    ``reference`` is the original relation's reference-cell signature;
    passing it saves a run when the differential layer already computed
    it.  Every transformed relation is executed under the reference
    cell only — the transformed runs exist to test the invariants, not
    to re-test the matrix.
    """
    if reference is None:
        reference = run_cell(relation, scenario, REFERENCE_CELL, workdir=workdir).signature
    found: list[Mismatch] = []

    shuffled = run_cell(
        relation=shuffle_rows(relation, seed),
        scenario=scenario, cell=REFERENCE_CELL, workdir=workdir,
    ).signature
    found.extend(reference.diff(shuffled, _FULL, "metamorphic:shuffle"))

    if scenario.measure in _DUPLICATION_EXACT:
        duplicated = run_cell(
            relation=duplicate_rows(relation, 2),
            scenario=scenario, cell=REFERENCE_CELL, workdir=workdir,
        ).signature
        found.extend(reference.diff(duplicated, _COVER, "metamorphic:duplicate"))

    permuted_relation, perm = permute_columns(relation, seed)
    permuted = run_cell(
        relation=permuted_relation,
        scenario=scenario, cell=REFERENCE_CELL, workdir=workdir,
    ).signature
    found.extend(
        reference.diff(_unpermute_signature(permuted, perm), _FULL, "metamorphic:permute")
    )

    reduced = delete_rows(relation, seed)
    for lhs, rhs in reference.fds:
        full_count = _g3_removal_count(relation, lhs, rhs)
        sub_count = _g3_removal_count(reduced, lhs, rhs)
        if sub_count > full_count:
            found.append(Mismatch(
                "metamorphic:delete", "errors",
                f"g3 removal count of ({lhs:#x} -> {rhs}) grew from "
                f"{full_count} to {sub_count} after deleting rows",
            ))
    return found


def check_planted_recovery(
    seed: int,
    *,
    num_rows: int = 40,
    determinant_columns: int = 2,
    dependent_columns: int = 2,
    workdir: str | Path,
) -> list[Mismatch]:
    """Plant known dependencies, rediscover, and demand entailment.

    The planted dependencies hold by construction, so the exact minimal
    cover must entail each of them: some discovered dependency with the
    same rhs and a lhs contained in the planted lhs.
    """
    relation, planted = planted_fd_relation(
        num_rows, determinant_columns, dependent_columns, seed=seed
    )
    signature = run_cell(
        relation, Scenario(epsilon=0.0), REFERENCE_CELL, workdir=workdir
    ).signature
    found: list[Mismatch] = []
    for fd in planted:
        entailed = any(
            rhs == fd.rhs and _bitset.is_subset(lhs, fd.lhs)
            for lhs, rhs in signature.fds
        )
        if not entailed:
            found.append(Mismatch(
                "metamorphic:planted", "fds",
                f"planted dependency ({fd.lhs:#x} -> {fd.rhs}) not entailed "
                f"by the discovered cover {list(signature.fds)!r}",
            ))
    return found


MEASURE_RELATIONS = ("exact", "deletion", "shuffle", "permute", "planted")
"""The named cross-measure relations :func:`compare_measures` checks,
in execution order.  Mismatch cells are
``compare_measures:<measure>:<relation>``."""

_EXACT_TOLERANCE = 1e-9
"""Definitional errors on exact dependencies must be zero; this only
absorbs float round-off of the entropy/ratio arithmetic."""

_DELETION_PAIRS = 3
"""Violated single-attribute pairs exercised by the deletion relation
per call (bounds the bruteforce recomputation cost per fuzz seed)."""


def delete_violating_rows(relation: Relation, lhs_mask: int, rhs_index: int) -> Relation:
    """Drop exactly the rows a ``g3`` repair of ``X -> A`` removes.

    Within each group of rows agreeing on ``X``, keep the rows
    carrying the group's most common ``A`` value (first-seen wins
    ties); the result satisfies ``X -> A`` exactly, by construction.
    """
    columns = [relation.column_codes(i) for i in _bitset.iter_bits(lhs_mask)]
    rhs = relation.column_codes(rhs_index)
    groups: dict[tuple[int, ...], list[int]] = {}
    for row in range(relation.num_rows):
        key = tuple(int(column[row]) for column in columns)
        groups.setdefault(key, []).append(row)
    keep: list[int] = []
    for rows in groups.values():
        counts = Counter(int(rhs[row]) for row in rows)
        majority = counts.most_common(1)[0][0]
        keep.extend(row for row in rows if int(rhs[row]) == majority)
    return relation.take(sorted(keep))


def _violated_pairs(relation: Relation) -> list[tuple[int, int]]:
    """Single-attribute dependencies ``{B} -> A`` with ``g3 > 0``."""
    pairs = []
    for rhs_index in range(relation.num_attributes):
        for lhs_index in range(relation.num_attributes):
            if lhs_index == rhs_index:
                continue
            lhs_mask = _bitset.from_indices([lhs_index])
            if dependency_g3(relation, lhs_mask, rhs_index) > 0.0:
                pairs.append((lhs_mask, rhs_index))
    return pairs


def compare_measures(
    relation: Relation,
    *,
    seed: int,
    workdir: str | Path,
    epsilon: float = 0.25,
    measures: tuple[str, ...] = SCORE_MEASURES,
) -> list[Mismatch]:
    """Run the cross-measure relations for every measure in ``measures``.

    * **exact** — every dependency of the exact cover must have
      definitional error 0 under every measure (all measures agree on
      exact FDs, including ``rfi`` by the Lemma 2 convention).
    * **deletion** — deleting the violating rows of a violated
      dependency makes it exact, so every measure's error must drop to
      0 (the monotone response, checked at its extreme point where the
      expected value is known exactly for *all* measures, the
      non-monotone ones included).
    * **shuffle** / **permute** — full discovery under each measure is
      invariant under row shuffles and (index-mapped) column
      permutations; ``rfi`` holds because its permutation bias is a
      function of partition shapes, not row or column numbering.
    * **planted** — dependencies planted by construction are exact, so
      discovery under every measure (at any threshold) must entail
      them.
    """
    found: list[Mismatch] = []

    exact_cover = run_cell(
        relation, Scenario(epsilon=0.0), REFERENCE_CELL, workdir=workdir
    ).signature.fds
    for measure in measures:
        for lhs, rhs in exact_cover:
            error = dependency_error(relation, lhs, rhs, measure)
            if abs(error) > _EXACT_TOLERANCE:
                found.append(Mismatch(
                    f"compare_measures:{measure}:exact", "errors",
                    f"exact dependency ({lhs:#x} -> {rhs}) scores "
                    f"{measure} error {error!r}, expected 0",
                ))

    for lhs, rhs in _violated_pairs(relation)[:_DELETION_PAIRS]:
        repaired = delete_violating_rows(relation, lhs, rhs)
        for measure in measures:
            before = dependency_error(relation, lhs, rhs, measure)
            after = dependency_error(repaired, lhs, rhs, measure)
            if abs(after) > _EXACT_TOLERANCE or after > before + _EXACT_TOLERANCE:
                found.append(Mismatch(
                    f"compare_measures:{measure}:deletion", "errors",
                    f"({lhs:#x} -> {rhs}): {measure} error {before!r} -> "
                    f"{after!r} after deleting its violating rows, "
                    f"expected 0",
                ))

    for measure in measures:
        scenario = Scenario(epsilon=epsilon, measure=measure)
        reference = run_cell(
            relation, scenario, REFERENCE_CELL, workdir=workdir
        ).signature

        shuffled = run_cell(
            relation=shuffle_rows(relation, seed),
            scenario=scenario, cell=REFERENCE_CELL, workdir=workdir,
        ).signature
        found.extend(reference.diff(
            shuffled, _FULL, f"compare_measures:{measure}:shuffle"
        ))

        permuted_relation, perm = permute_columns(relation, seed)
        permuted = run_cell(
            relation=permuted_relation,
            scenario=scenario, cell=REFERENCE_CELL, workdir=workdir,
        ).signature
        found.extend(reference.diff(
            _unpermute_signature(permuted, perm), _FULL,
            f"compare_measures:{measure}:permute",
        ))

    planted_relation, planted = planted_fd_relation(30, 2, 1, seed=seed)
    for measure in measures:
        signature = run_cell(
            planted_relation, Scenario(epsilon=epsilon, measure=measure),
            REFERENCE_CELL, workdir=workdir,
        ).signature
        for fd in planted:
            entailed = any(
                rhs == fd.rhs and _bitset.is_subset(lhs, fd.lhs)
                for lhs, rhs in signature.fds
            )
            if not entailed:
                found.append(Mismatch(
                    f"compare_measures:{measure}:planted", "fds",
                    f"planted dependency ({fd.lhs:#x} -> {fd.rhs}) not "
                    f"entailed by the {measure} cover "
                    f"{list(signature.fds)!r}",
                ))
    return found
