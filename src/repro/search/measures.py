"""The validity test of COMPUTE-DEPENDENCIES as a pure function.

Lines 5/5' of the paper decide whether ``X \\ {A} -> A`` holds — by the
O(1) rank comparison of Lemma 2 for exact discovery, or by comparing a
measure's error against ``epsilon`` for the approximate variant.  The
function lives in the search core (rather than inside the driver loop)
so that the levelwise driver and the node engine's walks run
*exactly* the same code, whatever the traversal.

The measure-specific branch is factored behind the :class:`Measure`
protocol.  Beyond the paper's ``g3`` and Kivinen & Mannila's
``g1``/``g2``, the registry carries the measures of the comparative
AFD-scoring literature — ``pdep``, Goodman–Kruskal ``tau``,
``mu_plus``, the fraction of information ``fi``, and the *reliable*
fraction of information ``rfi`` (Mandros et al.), which subtracts the
permutation-model bias computed exactly by
:func:`expected_mutual_information`.  Those five are natively *scores* in
``[0, 1]`` with 1 meaning an exact dependency; each is exposed as
``error = 1 - score`` so one ``error <= epsilon`` convention covers
the whole registry.

Exact dependencies short-circuit through Lemma 2 with error ``0.0``
under **every** measure — including ``rfi``, whose textbook value on a
key is below 1.  The bruteforce oracle mirrors that convention, and
``docs/MEASURES.md`` records it.

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
being applied to a stats object, so the scheduler aggregates counts in
deterministic test order, however the executor evaluated the tests.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

from repro.partition.errors import g1_error, g2_error
from repro.partition.vectorized import CsrPartition, PartitionWorkspace

__all__ = [
    "MEASURES",
    "SCORE_MEASURES",
    "RHS_STATS_MEASURES",
    "AttributeStats",
    "Measure",
    "ValidityCriteria",
    "ValidityOutcome",
    "attribute_stats",
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


class Measure(ABC):
    """One approximate error measure, as a validity-test evaluator.

    :meth:`evaluate` is called only after the exact rank test failed
    and only when ``epsilon > 0``; it decides approximate validity and
    reports the measured error plus the counter flags.  ``rhs_index``
    identifies the dependent attribute so measures that need its
    marginal statistics (:data:`RHS_STATS_MEASURES`) can look them up
    in ``criteria.rhs_stats``; measures that do not may ignore it.
    """

    name: str = "abstract"

    @abstractmethod
    def evaluate(
        self,
        pi_lhs: CsrPartition,
        pi_whole: CsrPartition,
        criteria: ValidityCriteria,
        workspace: PartitionWorkspace | None,
        rhs_index: int = -1,
    ) -> ValidityOutcome:
        """Test ``g(X∖{A} -> A) <= epsilon`` for this measure."""


class G3Measure(Measure):
    """The paper's ``g3``: fraction of rows to remove (Section 2).

    The O(1) lower bound of the extended version can reject a test
    without the O(|r|) exact error computation; the flag on the
    outcome records which path resolved the test.
    """

    name = "g3"

    def evaluate(self, pi_lhs, pi_whole, criteria, workspace, rhs_index=-1):
        """Bound short-circuit first, exact g3 count otherwise."""
        if criteria.use_g3_bounds:
            lower, _ = pi_lhs.g3_bound_counts(pi_whole)
            if lower > criteria.epsilon_count:
                return ValidityOutcome(
                    False, False, lower / criteria.num_rows, True, False
                )
        error_count = pi_lhs.g3_error_count(pi_whole, workspace)
        return ValidityOutcome(
            error_count <= criteria.epsilon_count,
            False,
            error_count / criteria.num_rows,
            False,
            True,
        )


class G1Measure(Measure):
    """Kivinen & Mannila's ``g1``: fraction of violating row pairs."""

    name = "g1"

    def evaluate(self, pi_lhs, pi_whole, criteria, workspace, rhs_index=-1):
        """Always the exact O(|r|) pair-count computation."""
        error = g1_error(pi_lhs, pi_whole)
        return ValidityOutcome(
            error <= criteria.epsilon + 1e-12, False, error, False, True
        )


class G2Measure(Measure):
    """Kivinen & Mannila's ``g2``: fraction of rows in violations."""

    name = "g2"

    def evaluate(self, pi_lhs, pi_whole, criteria, workspace, rhs_index=-1):
        """Always the exact O(|r|) violating-row computation."""
        error = g2_error(pi_lhs, pi_whole)
        return ValidityOutcome(
            error <= criteria.epsilon + 1e-12, False, error, False, True
        )


class _Contingency(NamedTuple):
    """The lhs x rhs contingency table of one test, as integer arrays.

    ``sizes[j]`` is the size ``s_j`` of stripped lhs class ``j``;
    ``children`` are the sizes ``k`` of the stripped classes of
    ``pi_whole`` and ``parents`` the lhs class each lies in;
    ``within[j] = sum k`` and ``agreeing[j] = sum k^2`` over the
    children of class ``j``.  The ``s_j - within[j]`` other rows of the
    class each carry a distinct rhs value, and rows outside every
    stripped lhs class are lhs-singletons, so this is all any score
    measure needs.
    """

    sizes: np.ndarray
    children: np.ndarray
    parents: np.ndarray
    within: np.ndarray
    agreeing: np.ndarray


def _contingency(pi_lhs, pi_whole, workspace=None) -> _Contingency:
    """The contingency table of ``pi_lhs`` refined by ``pi_whole``.

    A whole class (rows agreeing on X) always lies inside one lhs class
    (rows agreeing on X minus A), so its first row names the parent.
    The CSR engine scatters the lhs labels to rows and gathers them at
    those first rows; the pure engine builds the same integer arrays
    from ``classes()``.  Either way the per-parent sums are two
    ``bincount`` passes, and the table holds only integers: every
    float is derived from it term by term (see :func:`_pdep_score`).
    """
    if isinstance(pi_lhs, CsrPartition) and isinstance(pi_whole, CsrPartition):
        sizes = pi_lhs.class_sizes.astype(np.int64)
        children = pi_whole.class_sizes.astype(np.int64)
        probe = (
            workspace.probe
            if workspace is not None
            else np.full(pi_lhs.num_rows, -1, dtype=pi_lhs.indices.dtype)
        )
        try:
            # Labels built here, not cached on the partition: the walk
            # keeps many lhs partitions resident, and a label cache
            # would double each one's footprint.
            probe[pi_lhs.indices] = np.repeat(
                np.arange(sizes.size, dtype=probe.dtype), sizes
            )
            parents = probe[pi_whole.indices[pi_whole.offsets[:-1]]].astype(np.int64)
        finally:
            probe[pi_lhs.indices] = -1
    else:
        parent_of: dict[int, int] = {}
        size_list: list[int] = []
        for index, cls in enumerate(pi_lhs.classes()):
            size_list.append(len(cls))
            for row in cls:
                parent_of[row] = index
        whole = [(len(cls), parent_of[cls[0]]) for cls in pi_whole.classes()]
        sizes = np.array(size_list, dtype=np.int64)
        children = np.array([k for k, _ in whole], dtype=np.int64)
        parents = np.array([j for _, j in whole], dtype=np.int64)
    weights = children.astype(np.float64)
    # Integer-valued float sums: exact below 2**53, i.e. for any
    # relation of fewer than ~94 million rows.
    within = np.bincount(parents, weights=weights, minlength=sizes.size)
    agreeing = np.bincount(parents, weights=weights * weights, minlength=sizes.size)
    return _Contingency(sizes, children, parents, within, agreeing)


def _pdep_score(table: _Contingency, num_rows: int) -> float:
    """``pdep(X -> A)``: expected probability of guessing ``A`` right
    by drawing from its empirical distribution within the ``X`` group.

    Each lhs class contributes ``(sum k^2 + s - sum k) / s``, one
    correctly rounded division of integers, and ``math.fsum`` returns
    the correctly rounded sum of the terms.  The float is therefore a
    function of the multiset of classes alone: row shuffles, column
    permutations and both engines agree bit for bit.
    """
    if num_rows == 0:
        return 1.0
    terms = (table.agreeing + (table.sizes - table.within)) / table.sizes
    outside = num_rows - int(table.sizes.sum())
    return math.fsum([*terms.tolist(), outside]) / num_rows


def _conditional_entropy(table: _Contingency, num_rows: int) -> float:
    """Empirical ``H(A | X)`` in nats, summed by ``math.fsum``.

    Per stripped child ``-(k/n) log(k/s)``; per lhs class the
    ``s - sum k`` rows outside its children are distinct rhs values,
    ``(s - sum k) log(s) / n`` together.  Each term depends only on
    ``(k, s, n)``, so, as for :func:`_pdep_score`, the sum does not
    depend on the order of rows or classes.
    """
    if num_rows == 0:
        return 0.0
    children = table.children
    child_terms = -(children / num_rows) * np.log(children / table.sizes[table.parents])
    single_terms = (table.sizes - table.within) * np.log(table.sizes) / num_rows
    return math.fsum([*child_terms.tolist(), *single_terms.tolist()])


def _clamp(score: float) -> float:
    """Clamp a score into ``[0, 1]`` (float round-off guard)."""
    return min(1.0, max(0.0, score))


def _score_outcome(score: float, criteria: ValidityCriteria) -> ValidityOutcome:
    """Wrap a ``[0, 1]`` score as an error-convention outcome."""
    error = 1.0 - _clamp(score)
    return ValidityOutcome(
        error <= criteria.epsilon + 1e-12, False, error, False, True
    )


def _bound_rejection(pi_lhs, pi_whole, criteria) -> ValidityOutcome | None:
    """The g3 lower bound as a short-circuit for pdep-dominated errors.

    Per lhs class ``sum(m_i^2) <= s * max(m_i)``, so
    ``1 - pdep >= g3 >= (e_lhs - e_whole) / n``; the ``tau`` and
    ``mu_plus`` errors dominate ``1 - pdep`` in turn (dividing by
    ``1 - pdep(A) <= 1``, multiplying by ``(n-1)/(n-K) >= 1``).  The
    wide :data:`_BOUND_MARGIN` keeps the bound path's accept/reject
    decision identical to the exact path's under float round-off.
    """
    if not criteria.use_g3_bounds:
        return None
    lower, _ = pi_lhs.g3_bound_counts(pi_whole)
    if lower / criteria.num_rows > criteria.epsilon + _BOUND_MARGIN:
        return ValidityOutcome(
            False, False, lower / criteria.num_rows, True, False
        )
    return None


def _stats_for(criteria: ValidityCriteria, rhs_index: int, name: str) -> AttributeStats:
    """Look up the rhs marginal stats, failing loudly when absent."""
    if 0 <= rhs_index < len(criteria.rhs_stats):
        return criteria.rhs_stats[rhs_index]
    raise ValueError(
        f"measure {name!r} needs marginal statistics of the rhs attribute: "
        f"pass criteria.rhs_stats (see relation_rhs_stats) and rhs_index, "
        f"got rhs_index={rhs_index} with {len(criteria.rhs_stats)} stats"
    )


class PdepMeasure(Measure):
    """``pdep(X -> A)``: probability two random rows agreeing on ``X``
    agree on ``A`` — equivalently one minus Goodman–Kruskal's
    proportional-prediction error.  Error is ``1 - pdep``."""

    name = "pdep"

    def evaluate(self, pi_lhs, pi_whole, criteria, workspace, rhs_index=-1):
        rejection = _bound_rejection(pi_lhs, pi_whole, criteria)
        if rejection is not None:
            return rejection
        contingency = _contingency(pi_lhs, pi_whole, workspace)
        return _score_outcome(_pdep_score(contingency, criteria.num_rows), criteria)


class TauMeasure(Measure):
    """Goodman–Kruskal ``tau``: pdep normalized by the marginal
    baseline, ``(pdep(X->A) - pdep(A)) / (1 - pdep(A))``.  Error is
    ``1 - tau``; a constant rhs scores a perfect 1 by convention."""

    name = "tau"

    def evaluate(self, pi_lhs, pi_whole, criteria, workspace, rhs_index=-1):
        stats = _stats_for(criteria, rhs_index, self.name)
        if stats.pdep >= 1.0:
            return _score_outcome(1.0, criteria)
        rejection = _bound_rejection(pi_lhs, pi_whole, criteria)
        if rejection is not None:
            return rejection
        contingency = _contingency(pi_lhs, pi_whole, workspace)
        pdep_xy = _pdep_score(contingency, criteria.num_rows)
        return _score_outcome((pdep_xy - stats.pdep) / (1.0 - stats.pdep), criteria)


class MuPlusMeasure(Measure):
    """``mu_plus``: pdep shrunk by the expected chance agreement of a
    partition with ``K`` classes — ``1 - (1 - pdep) * (n-1)/(n-K)``,
    clamped at zero.  Error is ``1 - mu_plus``.  Not monotone under
    lhs growth (the ``(n-1)/(n-K)`` penalty grows with ``K``)."""

    name = "mu_plus"

    def evaluate(self, pi_lhs, pi_whole, criteria, workspace, rhs_index=-1):
        rejection = _bound_rejection(pi_lhs, pi_whole, criteria)
        if rejection is not None:
            return rejection
        # n - K = stripped size - class count = the lhs error count.
        free_rows = pi_lhs.error_count
        if free_rows <= 0:
            # lhs is a (super)key: pdep = 1 and mu is defined as 1.
            return _score_outcome(1.0, criteria)
        contingency = _contingency(pi_lhs, pi_whole, workspace)
        pdep_xy = _pdep_score(contingency, criteria.num_rows)
        mu = 1.0 - (1.0 - pdep_xy) * (criteria.num_rows - 1) / free_rows
        return _score_outcome(max(0.0, mu), criteria)


class FiMeasure(Measure):
    """Fraction of information ``1 - H(A|X) / H(A)``: the share of the
    rhs entropy the lhs explains.  Error is ``H(A|X) / H(A)``; a
    constant rhs scores a perfect 1 by convention."""

    name = "fi"

    def evaluate(self, pi_lhs, pi_whole, criteria, workspace, rhs_index=-1):
        stats = _stats_for(criteria, rhs_index, self.name)
        if stats.entropy <= 0.0:
            return _score_outcome(1.0, criteria)
        contingency = _contingency(pi_lhs, pi_whole, workspace)
        conditional = _conditional_entropy(contingency, criteria.num_rows)
        return _score_outcome(1.0 - conditional / stats.entropy, criteria)


class RfiMeasure(Measure):
    """Reliable fraction of information (Mandros et al.): ``fi`` minus
    the permutation-model bias ``E[I(X; A_sigma)] / H(A)``, clamped at
    zero.  The bias is exact (:func:`expected_mutual_information`) and
    depends only on the class-size and value-count multisets, so the
    value is the same across engines, stores, row shuffles, column
    permutations, and resume.  ``rfi <= fi`` always, since the bias is
    non-negative; not monotone under lhs growth."""

    name = "rfi"

    def evaluate(self, pi_lhs, pi_whole, criteria, workspace, rhs_index=-1):
        stats = _stats_for(criteria, rhs_index, self.name)
        # An exact FD scores 1 by the Lemma 2 convention, as in the
        # oracle; the textbook rfi of a key is 0 (E[I] = H(A) there).
        if stats.entropy <= 0.0 or pi_lhs.error_count == pi_whole.error_count:
            return _score_outcome(1.0, criteria)
        contingency = _contingency(pi_lhs, pi_whole, workspace)
        conditional = _conditional_entropy(contingency, criteria.num_rows)
        fi_score = 1.0 - conditional / stats.entropy
        bias = expected_mutual_information(
            contingency.sizes, stats.counts, criteria.num_rows
        )
        return _score_outcome(max(0.0, fi_score - bias / stats.entropy), criteria)


MEASURES: dict[str, Measure] = {
    measure.name: measure
    for measure in (
        G3Measure(),
        G1Measure(),
        G2Measure(),
        PdepMeasure(),
        TauMeasure(),
        MuPlusMeasure(),
        FiMeasure(),
        RfiMeasure(),
    )
}
"""Registry of the supported error measures, keyed by name.  The key
order is the canonical enumeration used in configuration errors."""

SCORE_MEASURES = ("pdep", "tau", "mu_plus", "fi", "rfi")
"""The native score-in-[0,1] measures (exposed as ``error = 1 -
score``), in registry order."""

RHS_STATS_MEASURES = frozenset({"tau", "fi", "rfi"})
"""Measures whose evaluation reads ``criteria.rhs_stats``."""


def evaluate_validity(
    pi_lhs: CsrPartition,
    pi_whole: CsrPartition,
    criteria: ValidityCriteria,
    workspace: PartitionWorkspace | None = None,
    rhs_index: int = -1,
) -> ValidityOutcome:
    """Test ``X \\ {A} -> A`` given ``pi_lhs = π_{X∖{A}}`` and ``pi_whole = π_X``.

    Exact validity is the O(1) rank comparison of Lemma 2 and yields
    error ``0.0`` under every measure.  The approximate variant
    dispatches to the configured :class:`Measure`; under ``g3`` /
    ``pdep`` / ``tau`` / ``mu_plus`` the O(1) lower bound can reject
    without the exact computation, while the others always compute.
    """
    exactly_valid = pi_lhs.error_count == pi_whole.error_count
    if exactly_valid:
        return ValidityOutcome(True, True, 0.0, False, False)
    if criteria.epsilon == 0.0:
        return ValidityOutcome(False, False, 0.0, False, False)
    return MEASURES[criteria.measure].evaluate(
        pi_lhs, pi_whole, criteria, workspace, rhs_index
    )
