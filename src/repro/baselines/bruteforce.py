"""Exhaustive dependency discovery, used as a test oracle.

These routines check dependencies straight from the definition (group
rows by their left-hand-side values) without partitions, products, or
pruning — slow, but obviously correct, which is exactly what the
property-based tests need to validate TANE and FDEP against.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

from repro import _bitset
from repro.model.fd import FDSet, FunctionalDependency
from repro.model.relation import Relation
from repro.search.measures import expected_mutual_information

__all__ = [
    "dependency_holds",
    "dependency_g1",
    "dependency_g2",
    "dependency_g3",
    "dependency_pdep",
    "dependency_tau",
    "dependency_mu_plus",
    "dependency_fi",
    "dependency_rfi",
    "dependency_error",
    "discover_fds_bruteforce",
]


def _lhs_groups(relation: Relation, lhs_mask: int) -> dict[tuple[int, ...], list[int]]:
    """Group row indices by their value tuple on the lhs attributes."""
    columns = [relation.column_codes(i) for i in _bitset.iter_bits(lhs_mask)]
    groups: dict[tuple[int, ...], list[int]] = {}
    for row in range(relation.num_rows):
        key = tuple(int(column[row]) for column in columns)
        groups.setdefault(key, []).append(row)
    return groups


def dependency_holds(relation: Relation, lhs_mask: int, rhs_index: int) -> bool:
    """Check ``X -> A`` directly from the definition (Section 1)."""
    rhs = relation.column_codes(rhs_index)
    for rows in _lhs_groups(relation, lhs_mask).values():
        first = rhs[rows[0]]
        if any(rhs[row] != first for row in rows[1:]):
            return False
    return True


def dependency_g3(relation: Relation, lhs_mask: int, rhs_index: int) -> float:
    """Compute ``g3(X -> A)`` directly from the definition.

    For each group of rows agreeing on ``X``, all rows except those
    with the most common ``A``-value must be removed.
    """
    if relation.num_rows == 0:
        return 0.0
    rhs = relation.column_codes(rhs_index)
    removed = 0
    for rows in _lhs_groups(relation, lhs_mask).values():
        counts = Counter(int(rhs[row]) for row in rows)
        removed += len(rows) - max(counts.values())
    return removed / relation.num_rows


def dependency_g1(relation: Relation, lhs_mask: int, rhs_index: int) -> float:
    """Compute ``g1(X -> A)`` from the definition: the fraction of
    ordered row pairs agreeing on ``X`` but not on ``A``."""
    n = relation.num_rows
    if n == 0:
        return 0.0
    rhs = relation.column_codes(rhs_index)
    violating = 0
    for rows in _lhs_groups(relation, lhs_mask).values():
        counts = Counter(int(rhs[row]) for row in rows)
        agreeing_pairs = sum(c * c for c in counts.values())
        violating += len(rows) ** 2 - agreeing_pairs
    return violating / (n * n)


def dependency_g2(relation: Relation, lhs_mask: int, rhs_index: int) -> float:
    """Compute ``g2(X -> A)`` from the definition: the fraction of rows
    involved in at least one violating pair."""
    n = relation.num_rows
    if n == 0:
        return 0.0
    rhs = relation.column_codes(rhs_index)
    involved = 0
    for rows in _lhs_groups(relation, lhs_mask).values():
        values = {int(rhs[row]) for row in rows}
        if len(values) > 1:
            involved += len(rows)
    return involved / n


def _pdep_of(relation: Relation, lhs_mask: int, rhs_index: int) -> float:
    """``pdep(X -> A)`` straight from the definition."""
    n = relation.num_rows
    if n == 0:
        return 1.0
    rhs = relation.column_codes(rhs_index)
    total = 0.0
    for rows in _lhs_groups(relation, lhs_mask).values():
        counts = Counter(int(rhs[row]) for row in rows)
        total += sum(c * c for c in counts.values()) / len(rows)
    return total / n


def _marginal_counts(relation: Relation, rhs_index: int) -> list[int]:
    """Value counts of the rhs column, sorted descending."""
    rhs = relation.column_codes(rhs_index)
    counts = Counter(int(rhs[row]) for row in range(relation.num_rows))
    return sorted(counts.values(), reverse=True)


def _entropy(counts, total: int) -> float:
    """Natural-log entropy of a count multiset summing to ``total``."""
    if total <= 0:
        return 0.0
    return -sum((c / total) * math.log(c / total) for c in counts)


def _conditional_entropy_of(relation: Relation, lhs_mask: int, rhs_index: int) -> float:
    """Empirical ``H(A | X)`` straight from the definition, in nats."""
    n = relation.num_rows
    if n == 0:
        return 0.0
    rhs = relation.column_codes(rhs_index)
    conditional = 0.0
    for rows in _lhs_groups(relation, lhs_mask).values():
        counts = Counter(int(rhs[row]) for row in rows)
        conditional += (len(rows) / n) * _entropy(counts.values(), len(rows))
    return conditional


def dependency_pdep(relation: Relation, lhs_mask: int, rhs_index: int) -> float:
    """Error ``1 - pdep(X -> A)`` from the definition."""
    return min(1.0, max(0.0, 1.0 - _pdep_of(relation, lhs_mask, rhs_index)))


def dependency_tau(relation: Relation, lhs_mask: int, rhs_index: int) -> float:
    """Error ``1 - tau(X -> A)`` (Goodman–Kruskal) from the definition.

    A constant rhs (``pdep(A) = 1``) scores a perfect ``tau = 1`` by
    the same convention the search-side measure uses.
    """
    n = relation.num_rows
    if n == 0:
        return 0.0
    marginal = sum(c * c for c in _marginal_counts(relation, rhs_index)) / (n * n)
    if marginal >= 1.0:
        return 0.0
    pdep_xy = _pdep_of(relation, lhs_mask, rhs_index)
    tau = (pdep_xy - marginal) / (1.0 - marginal)
    return min(1.0, max(0.0, 1.0 - tau))


def dependency_mu_plus(relation: Relation, lhs_mask: int, rhs_index: int) -> float:
    """Error ``1 - mu_plus(X -> A)`` from the definition."""
    n = relation.num_rows
    if n == 0:
        return 0.0
    groups = _lhs_groups(relation, lhs_mask)
    free_rows = n - len(groups)
    if free_rows <= 0:
        return 0.0
    pdep_xy = _pdep_of(relation, lhs_mask, rhs_index)
    mu = 1.0 - (1.0 - pdep_xy) * (n - 1) / free_rows
    return min(1.0, max(0.0, 1.0 - max(0.0, mu)))


def dependency_fi(relation: Relation, lhs_mask: int, rhs_index: int) -> float:
    """Error ``1 - FI(X -> A)`` = ``H(A|X) / H(A)`` from the definition."""
    n = relation.num_rows
    if n == 0:
        return 0.0
    marginal_entropy = _entropy(_marginal_counts(relation, rhs_index), n)
    if marginal_entropy <= 0.0:
        return 0.0
    conditional = _conditional_entropy_of(relation, lhs_mask, rhs_index)
    return min(1.0, max(0.0, conditional / marginal_entropy))


def dependency_rfi(relation: Relation, lhs_mask: int, rhs_index: int) -> float:
    """Error ``1 - RFI(X -> A)`` (reliable fraction of information).

    The FI part is computed from the definition; the permutation-model
    bias is the same closed form the search calls,
    :func:`repro.search.measures.expected_mutual_information`, fed the
    lhs group sizes counted here; that function is checked on its own
    against full enumeration of the rhs arrangements.  Exact
    dependencies are error ``0`` by the search's Lemma 2 convention
    (the textbook rfi of a key is 0; see ``docs/MEASURES.md``).
    """
    n = relation.num_rows
    if n == 0:
        return 0.0
    if dependency_holds(relation, lhs_mask, rhs_index):
        return 0.0
    marginal = _marginal_counts(relation, rhs_index)
    marginal_entropy = _entropy(marginal, n)
    if marginal_entropy <= 0.0:
        return 0.0
    fi_score = 1.0 - _conditional_entropy_of(relation, lhs_mask, rhs_index) / marginal_entropy
    class_sizes = [len(rows) for rows in _lhs_groups(relation, lhs_mask).values()]
    bias = expected_mutual_information(class_sizes, marginal, n)
    rfi = max(0.0, fi_score - bias / marginal_entropy)
    return min(1.0, max(0.0, 1.0 - rfi))


def dependency_error(
    relation: Relation, lhs_mask: int, rhs_index: int, measure: str = "g3"
) -> float:
    """Compute the named error measure from its definition."""
    if measure == "g3":
        return dependency_g3(relation, lhs_mask, rhs_index)
    if measure == "g1":
        return dependency_g1(relation, lhs_mask, rhs_index)
    if measure == "g2":
        return dependency_g2(relation, lhs_mask, rhs_index)
    if measure == "pdep":
        return dependency_pdep(relation, lhs_mask, rhs_index)
    if measure == "tau":
        return dependency_tau(relation, lhs_mask, rhs_index)
    if measure == "mu_plus":
        return dependency_mu_plus(relation, lhs_mask, rhs_index)
    if measure == "fi":
        return dependency_fi(relation, lhs_mask, rhs_index)
    if measure == "rfi":
        return dependency_rfi(relation, lhs_mask, rhs_index)
    raise ValueError(f"unknown measure {measure!r}")


def discover_fds_bruteforce(
    relation: Relation,
    epsilon: float = 0.0,
    max_lhs_size: int | None = None,
    measure: str = "g3",
) -> FDSet:
    """Find all minimal non-trivial (approximate) dependencies exhaustively.

    Enumerates candidate left-hand sides per right-hand side in
    increasing size with a subset-of-a-valid-set skip.  For the
    monotone measures (``g3``/``g1``/``g2``/``pdep``/``tau``/``fi``)
    that skip is sound by monotonicity under lhs growth; for the
    non-monotone ``mu_plus``/``rfi`` it is the *same* pruning rule
    TANE's candidate tracker applies, so the two sides agree on the
    resulting "TANE-minimal" cover by construction.
    """
    num_attributes = relation.num_attributes
    limit = num_attributes - 1 if max_lhs_size is None else min(max_lhs_size, num_attributes - 1)
    result = FDSet()
    for rhs_index in range(num_attributes):
        others = [i for i in range(num_attributes) if i != rhs_index]
        minimal_valid: list[int] = []
        for size in range(limit + 1):
            for combo in combinations(others, size):
                lhs_mask = _bitset.from_indices(combo)
                if any(_bitset.is_subset(valid, lhs_mask) for valid in minimal_valid):
                    continue
                if epsilon == 0.0:
                    is_valid = dependency_holds(relation, lhs_mask, rhs_index)
                    error = 0.0
                else:
                    error = dependency_error(relation, lhs_mask, rhs_index, measure)
                    is_valid = error <= epsilon + 1e-12
                if is_valid:
                    minimal_valid.append(lhs_mask)
                    result.add(FunctionalDependency(lhs_mask, rhs_index, error))
    return result
