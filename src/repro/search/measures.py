"""The validity test of COMPUTE-DEPENDENCIES as a pure function.

Lines 5/5' of the paper decide whether ``X \\ {A} -> A`` holds — by the
O(1) rank comparison of Lemma 2 for exact discovery, or by comparing a
measure's error against ``epsilon`` for the approximate variant.  The
function lives in the search core (rather than inside the driver loop)
so that the levelwise walk and the DFD walk run *exactly* the same
code, whatever the traversal.

:func:`evaluate_validity` is the one per-pair rule.  :data:`MEASURES`
maps each measure's name to a formula ``(table, n, rhs_stats) ->
error`` over the pair's :class:`~repro.partition.errors.Contingency`
table.  Beyond the paper's ``g3`` and Kivinen & Mannila's
``g1``/``g2``, it carries the measures of the comparative AFD-scoring
literature — ``pdep``, Goodman–Kruskal ``tau``, ``mu_plus``, the
fraction of information ``fi``, and the *reliable* fraction of
information ``rfi`` (Mandros et al.), which subtracts the
permutation-model bias computed exactly by
:func:`expected_mutual_information`.  Those five are natively *scores* in
``[0, 1]`` with 1 meaning an exact dependency; each is exposed as
``error = 1 - score`` so one ``error <= epsilon`` convention covers
the whole table.

Exact dependencies short-circuit through Lemma 2 with error ``0.0``
under **every** measure — including ``rfi``, whose textbook value on a
key is below 1.  The bruteforce oracle mirrors that convention, and
``docs/MEASURES.md`` records it.  A formula thus only sees pairs with
``e(X∖{A}) > e(X)``: the rhs is not constant, the lhs is no key, and
the relation has rows.

``g3``/``g1``/``g2``/``pdep``/``tau``/``fi`` are monotone
non-increasing under lhs growth; ``mu_plus`` and ``rfi`` are *not*
(their bias penalties grow with the number of lhs classes), but the
levelwise pruning is subset-validity based — identical to the
bruteforce oracle's skip — so the discovered cover is still the
well-defined "TANE-minimal" one and differential cells agree.  The
O(1) g3 lower bound is a sound short-circuit for ``pdep``, ``tau``
and ``mu_plus`` as well (``1 - pdep >= g3`` classwise, and the other
two errors dominate ``1 - pdep``); ``fi``/``rfi`` admit no such bound.

Counter bookkeeping is returned as flags on the outcome instead of
being applied to a stats object, so the driver aggregates counts in
deterministic test order, however the executor evaluated the tests.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from repro.partition.base import PartitionBase
from repro.partition.errors import Contingency, LabelRow, contingency, g1_count, g2_count, g3_count
from repro.partition.vectorized import PartitionWorkspace

__all__ = [
    "MEASURES",
    "SCORE_MEASURES",
    "RHS_STATS_MEASURES",
    "AttributeStats",
    "ValidityCriteria",
    "ValidityOutcome",
    "attribute_stats",
    "bound_outcome",
    "bound_rejects",
    "relation_rhs_stats",
    "evaluate_validity",
    "entropy_from_counts",
    "expected_mutual_information",
]

# Margin for the O(1) bound short-circuits of the score measures: the
# bound path must never reject a test the exact path would accept, so
# it fires only when the bound clears the threshold by more than any
# possible float round-off of the exact computation.
_BOUND_MARGIN = 1e-9

# Most (a, b, k) terms of the expected mutual information evaluated in
# one vectorized pass: bounds one rfi test's memory on tall relations
# whose partitions have many distinct class sizes.
_EMI_CHUNK_TERMS = 1 << 20


def entropy_from_counts(counts: np.ndarray, total: int) -> float:
    """Natural-log entropy of a positive count vector summing to ``total``."""
    if total <= 0 or len(counts) == 0:
        return 0.0
    probabilities = counts / total
    return float(-(probabilities * np.log(probabilities)).sum())


def expected_mutual_information(class_sizes, value_counts, num_rows: int) -> float:
    """``E[I(X; A)]`` in nats under the permutation model, in closed form.

    The permutation model keeps the grouping of rows by ``X`` and the
    multiset of ``A``-values, and deals the values over the rows
    uniformly at random.  The number ``k`` of rows an lhs class of size
    ``a`` shares with an rhs value of count ``b`` is then hypergeometric,
    which gives the expected mutual information of Vinh, Epps and
    Bailey (JMLR 2010)::

        E[I] = sum_i sum_j sum_k (k/n) log(n k / (a_i b_j)) P_hyp(k; a_i, b_j, n)

    over ``k = max(1, a+b-n) .. min(a, b)``.  ``class_sizes`` are the
    stripped lhs classes; the ``n - sum(class_sizes)`` rows outside
    them are classes of size 1.  Classes of equal size share one term
    weighted by their multiplicity, and so do rhs values of equal
    count.  The value is a function of the two size multisets alone.
    """
    n = int(num_rows)
    counts = np.asarray(value_counts, dtype=np.int64)
    if n <= 1 or counts.size <= 1:
        return 0.0
    sizes = np.asarray(class_sizes, dtype=np.int64)
    # The appended 1 makes size 1 the first distinct value, whose
    # multiplicity is then the singleton count (possibly 0).
    a, a_mult = np.unique(np.append(sizes, 1), return_counts=True)
    a_mult[0] += n - int(sizes.sum()) - 1
    b, b_mult = np.unique(counts, return_counts=True)
    pair_a = np.repeat(a, b.size)
    pair_b = np.tile(b, a.size)
    weight = (np.repeat(a_mult, b.size) * np.tile(b_mult, a.size)).astype(np.float64)
    low = np.maximum(1, pair_a + pair_b - n)
    span = np.minimum(pair_a, pair_b) - low + 1
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    # log of the pmf's k-free factor a! (n-a)! b! (n-b)! / n!
    log_pair = (
        log_fact[pair_a] + log_fact[n - pair_a]
        + log_fact[pair_b] + log_fact[n - pair_b] - log_fact[n]
    )
    ends = np.cumsum(span)
    cuts = np.searchsorted(
        ends, np.arange(_EMI_CHUNK_TERMS, ends[-1], _EMI_CHUNK_TERMS), side="right"
    )
    bounds = np.unique(np.concatenate(([0], cuts, [span.size])))
    total = 0.0
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        chunk = slice(start, stop)
        lengths = span[chunk]
        firsts = np.cumsum(lengths) - lengths
        k = np.arange(int(lengths.sum())) - np.repeat(firsts - low[chunk], lengths)
        ka = np.repeat(pair_a[chunk], lengths)
        kb = np.repeat(pair_b[chunk], lengths)
        log_pmf = np.repeat(log_pair[chunk], lengths) - (
            log_fact[k] + log_fact[ka - k] + log_fact[kb - k] + log_fact[n - ka - kb + k]
        )
        terms = (k / n) * np.log(n * k / (ka * kb)) * np.exp(log_pmf)
        total += float(np.repeat(weight[chunk], lengths) @ terms)
    # E[I] >= 0; the clamp only absorbs float round-off.
    return max(0.0, total)


class AttributeStats(NamedTuple):
    """Marginal statistics of one (rhs) attribute.

    ``tau`` needs the marginal ``pdep(A)``, ``fi``/``rfi`` need the
    marginal entropy, and ``rfi``'s expected mutual information needs
    the raw value histogram.  All three are properties of a *column*,
    independent of any lhs, so the composition root computes them once
    per attribute and ships them inside :class:`ValidityCriteria`.
    """

    pdep: float
    """``pdep(A) = sum(c^2) / n^2`` over the value counts."""

    entropy: float
    """Natural-log entropy ``H(A)`` of the empirical distribution."""

    counts: tuple[int, ...]
    """Value counts, sorted descending."""


def attribute_stats(codes, num_rows: int) -> AttributeStats:
    """Compute :class:`AttributeStats` from one column's value codes."""
    if num_rows == 0:
        return AttributeStats(pdep=1.0, entropy=0.0, counts=())
    histogram = np.bincount(np.asarray(codes, dtype=np.int64))
    counts = np.sort(histogram[histogram > 0])[::-1]
    pdep = float((counts.astype(np.float64) ** 2).sum()) / (num_rows * num_rows)
    return AttributeStats(
        pdep=pdep,
        entropy=entropy_from_counts(counts, num_rows),
        counts=tuple(int(c) for c in counts),
    )


def relation_rhs_stats(relation) -> tuple[AttributeStats, ...]:
    """Marginal stats for every attribute of a relation, by index."""
    return tuple(
        attribute_stats(relation.column_codes(index), relation.num_rows)
        for index in range(relation.num_attributes)
    )


class ValidityCriteria(NamedTuple):
    """The configuration slice a validity test depends on."""

    epsilon: float
    """Error threshold; ``0.0`` means exact discovery."""

    epsilon_count: int
    """``floor(epsilon * |r|)``: max removable rows for g3 validity."""

    measure: str
    """A key of :data:`MEASURES`."""

    use_g3_bounds: bool
    """Short-circuit tests with the O(1) g3 lower bound where sound."""

    num_rows: int
    """``|r|`` of the relation under test."""

    rhs_stats: tuple[AttributeStats, ...] = ()
    """Per-attribute marginal stats, indexed by attribute number.
    Empty unless the configured measure is in
    :data:`RHS_STATS_MEASURES` (no point computing them otherwise)."""


class ValidityOutcome(NamedTuple):
    """Result of one validity test plus its counter flags."""

    valid: bool
    """The dependency holds within ``epsilon``."""

    exactly_valid: bool
    """The dependency holds exactly (rank comparison, Lemma 2)."""

    error: float
    """The measured (or bounding) error fraction."""

    bound_rejected: bool
    """Resolved by the O(1) g3 lower bound alone."""

    error_computed: bool
    """An exact O(|r|) error computation was performed."""


def _pdep_score(table: Contingency, num_rows: int) -> float:
    """``pdep(X -> A)``: expected probability of guessing ``A`` right
    by drawing from its empirical distribution within the ``X`` group.

    Each lhs class contributes ``(sum k^2 + s - sum k) / s``, one
    correctly rounded division of integers, and ``math.fsum`` returns
    the correctly rounded sum of the terms.  The float is therefore a
    function of the multiset of classes alone: row shuffles, column
    permutations and both engines agree bit for bit.
    """
    weights = table.children.astype(np.float64)
    within = table.per_class(weights)
    agreeing = table.per_class(weights * weights)
    terms = (agreeing + (table.sizes - within)) / table.sizes
    outside = num_rows - int(table.sizes.sum())
    return math.fsum([*terms.tolist(), outside]) / num_rows


def _conditional_entropy(table: Contingency, num_rows: int) -> float:
    """Empirical ``H(A | X)`` in nats, summed by ``math.fsum``.

    Per stripped child ``-(k/n) log(k/s)``; per lhs class the
    ``s - sum k`` rows outside its children are distinct rhs values,
    ``(s - sum k) log(s) / n`` together.  Each term depends only on
    ``(k, s, n)``, so, as for :func:`_pdep_score`, the sum does not
    depend on the order of rows or classes.
    """
    children = table.children
    child_terms = -(children / num_rows) * np.log(children / table.sizes[table.parents])
    within = table.per_class(children.astype(np.float64))
    single_terms = (table.sizes - within) * np.log(table.sizes) / num_rows
    return math.fsum([*child_terms.tolist(), *single_terms.tolist()])


def _score_error(score: float) -> float:
    """A score's error, ``1 - score`` with the score clamped into
    ``[0, 1]`` (a float round-off guard, and the zero floor of
    ``mu_plus`` and ``rfi``)."""
    return 1.0 - min(1.0, max(0.0, score))


def _tau(table: Contingency, n: int, stats: AttributeStats) -> float:
    """Goodman–Kruskal ``tau``: pdep normalized by the marginal
    baseline, ``(pdep(X->A) - pdep(A)) / (1 - pdep(A))``."""
    return _score_error((_pdep_score(table, n) - stats.pdep) / (1.0 - stats.pdep))


def _mu_plus(table: Contingency, n: int, stats: AttributeStats | None) -> float:
    """``mu_plus``: pdep shrunk by the expected chance agreement of a
    partition with ``K`` classes, ``1 - (1 - pdep) * (n-1)/(n-K)``.
    ``n - K`` is the lhs's stripped size less its class count, its
    ``e`` — positive, since a key lhs passes Lemma 2."""
    free_rows = int(table.sizes.sum()) - table.sizes.size
    return _score_error(1.0 - (1.0 - _pdep_score(table, n)) * (n - 1) / free_rows)


def _fi_score(table: Contingency, n: int, stats: AttributeStats) -> float:
    """Fraction of information ``1 - H(A|X) / H(A)``: the share of the
    rhs entropy the lhs explains."""
    return 1.0 - _conditional_entropy(table, n) / stats.entropy


def _rfi(table: Contingency, n: int, stats: AttributeStats) -> float:
    """Reliable fraction of information (Mandros et al.): ``fi`` minus
    the permutation-model bias ``E[I(X; A_sigma)] / H(A)``.  The bias
    is exact (:func:`expected_mutual_information`) and depends only on
    the class-size and value-count multisets, so the value is the same
    across engines, stores, row shuffles, column permutations, and
    resume.  ``rfi <= fi`` always, since the bias is non-negative."""
    bias = expected_mutual_information(table.sizes, stats.counts, n)
    return _score_error(_fi_score(table, n, stats) - bias / stats.entropy)


MEASURES: dict[str, Callable[[Contingency, int, AttributeStats | None], float]] = {
    # The paper's g3: the fraction of rows to remove (Section 2).
    "g3": lambda table, n, stats: g3_count(table) / n,
    # Kivinen & Mannila: violating ordered row pairs over |r|², and
    # rows in some violation over |r|.
    "g1": lambda table, n, stats: g1_count(table) / n**2,
    "g2": lambda table, n, stats: g2_count(table) / n,
    # The probability that two rows agreeing on X agree on A.
    "pdep": lambda table, n, stats: _score_error(_pdep_score(table, n)),
    "tau": _tau,
    "mu_plus": _mu_plus,
    "fi": lambda table, n, stats: _score_error(_fi_score(table, n, stats)),
    "rfi": _rfi,
}
"""Each measure's error as a formula ``(table, n, rhs_stats) -> error``
over the contingency table of a pair that failed Lemma 2's rank test,
keyed by name.  ``rhs_stats`` is the rhs's :class:`AttributeStats` for
the measures in :data:`RHS_STATS_MEASURES`, else ``None``.  The key
order is the canonical enumeration used in configuration errors."""

SCORE_MEASURES = ("pdep", "tau", "mu_plus", "fi", "rfi")
"""The native score-in-[0,1] measures (exposed as ``error = 1 -
score``), in registry order."""

RHS_STATS_MEASURES = frozenset({"tau", "fi", "rfi"})
"""Measures whose formula reads the rhs's :class:`AttributeStats`."""

_MARGIN_BOUND_MEASURES = frozenset({"pdep", "tau", "mu_plus"})
"""Score measures whose error dominates g3, so the g3 lower bound may
reject their tests (see :func:`bound_rejects`)."""


def bound_rejects(lower, criteria: ValidityCriteria):
    """Whether the O(1) g3 lower bound alone rejects ``X∖{A} → A``.

    ``lower`` is the bound in rows, ``e(X∖{A}) − e(X)``
    (:meth:`~repro.partition.base.PartitionBase.g3_bound_counts`), so
    the rule needs the two ranks and no partition.  An int gives a
    bool; an array of bounds gives one per element.

    * ``g3`` rejects when the bound exceeds ``ε|r|`` rows.
    * ``pdep``, ``tau`` and ``mu_plus`` reject when ``lower / |r|``
      exceeds ε by more than :data:`_BOUND_MARGIN`.  Per lhs class
      ``sum(m_i^2) <= s * max(m_i)``, so ``1 - pdep >= g3 >=
      lower / |r|``; the ``tau`` and ``mu_plus`` errors dominate
      ``1 - pdep`` in turn (dividing by ``1 - pdep(A) <= 1``,
      multiplying by ``(n-1)/(n-K) >= 1``).  The margin keeps the bound
      path's accept/reject decision identical to the exact path's under
      float round-off.
    * The other measures admit no such bound and never reject.
    """
    if not criteria.use_g3_bounds:
        return False
    if criteria.measure == "g3":
        return lower > criteria.epsilon_count
    if criteria.measure not in _MARGIN_BOUND_MEASURES:
        return False
    return lower / criteria.num_rows > criteria.epsilon + _BOUND_MARGIN


def bound_outcome(lower: int, criteria: ValidityCriteria) -> ValidityOutcome:
    """The outcome of a test :func:`bound_rejects` rejects: its error is
    the bound, and no error computation ran."""
    return ValidityOutcome(False, False, lower / criteria.num_rows, True, False)


def _stats_for(criteria: ValidityCriteria, rhs_index: int) -> AttributeStats:
    """Look up the rhs marginal stats, failing loudly when absent."""
    if 0 <= rhs_index < len(criteria.rhs_stats):
        return criteria.rhs_stats[rhs_index]
    raise ValueError(
        f"measure {criteria.measure!r} needs marginal statistics of the rhs "
        f"attribute: pass criteria.rhs_stats (see relation_rhs_stats) and "
        f"rhs_index, got rhs_index={rhs_index} with {len(criteria.rhs_stats)} stats"
    )


def evaluate_validity(
    pi_lhs: PartitionBase | LabelRow,
    pi_whole: PartitionBase | LabelRow,
    criteria: ValidityCriteria,
    workspace: PartitionWorkspace | None = None,
    rhs_index: int = -1,
) -> ValidityOutcome:
    """Test ``X \\ {A} -> A`` given ``pi_lhs = π_{X∖{A}}`` and ``pi_whole = π_X``.

    In order: Lemma 2's rank comparison (exact validity, error ``0.0``
    under every measure); exact discovery fails the rest; the rhs stats
    of the measures that read them (``ValueError`` when absent); the
    O(1) g3 lower bound (:func:`bound_rejects`); then the pair's
    contingency table and the measure's formula.
    """
    exactly_valid = pi_lhs.error_count == pi_whole.error_count
    if exactly_valid:
        return ValidityOutcome(True, True, 0.0, False, False)
    if criteria.epsilon == 0.0:
        return ValidityOutcome(False, False, 0.0, False, False)
    measure = criteria.measure
    stats = _stats_for(criteria, rhs_index) if measure in RHS_STATS_MEASURES else None
    lower = pi_lhs.error_count - pi_whole.error_count
    if bound_rejects(lower, criteria):
        return bound_outcome(lower, criteria)
    n = criteria.num_rows
    error = MEASURES[measure](contingency(pi_lhs, pi_whole, workspace), n, stats)
    if measure == "g3":
        # The paper's integer test, count <= floor(ε|r|): dividing both
        # integers (< 2**52) by n keeps their order, ties included.
        valid = error <= criteria.epsilon_count / n
    else:
        valid = error <= criteria.epsilon + 1e-12
    return ValidityOutcome(valid, False, error, False, True)
