"""Candidate bookkeeping: rhs+ sets, dependency recording, pruning.

The :class:`CandidateTracker` owns everything COMPUTE-DEPENDENCIES and
PRUNE know about candidates (Sections 4-5 of the paper):

* the rhs+ candidate sets ``C+`` computed per level by intersecting
  the parents' sets (Lemma 4 justifies the intersection);
* the testable ``(rhs, lhs)`` pairs of each level set;
* applying validity outcomes — recording minimal dependencies and
  shrinking ``C+`` (line 7, and line 8 / lines 8'-9' when the
  dependency holds exactly);
* the pruning rules: empty-``C+`` pruning (Lemma 5) and key pruning,
  including the key-rule dependency emission with lazy mathematical
  ``C+`` membership for never-generated sibling sets.

The tracker is pure candidate logic: it reads no partition, only the
ranks ``e(X) = ||π̂_X|| - |π̂_X|`` a level carries, so it unit-tests
against a hand-built lattice with no partitions at all.

A level is a :class:`LevelArrays`: sorted masks, their ranks and
``C+`` as aligned arrays, with masks and ``C+`` in
:func:`repro._bitset.mask_dtype` of the schema (``int64`` up to 63
attributes, Python ints in ``object`` arrays above).  Each step is a
fixed number of numpy passes over the level: the Lemma 4 intersection
and the Lemma 2 test gather the previous level's ``C+`` and ranks at the
rows of every ``X∖{A}``, which lattice generation found
(:attr:`repro.core.lattice.LevelCandidates.subsets`; a level with no
such matrix, level 1 or a restored level, looks them up in one search),
keys are ``e(X) == 0``, and the ``C+`` updates are bitwise and land on
the rows the pairs came from.  Python loops remain only where the search
records something — dependencies and keys — and in the key rule, which
visits the level's few keys.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro import _bitset
from repro.model.fd import FDSet, FunctionalDependency

__all__ = ["CandidateTracker", "LevelArrays", "LevelPairs", "PairOutcomes"]


class LevelArrays:
    """One lattice level as aligned arrays.

    ``masks`` ascend; ``errors[i]`` is ``e(X)`` of ``masks[i]``;
    ``cplus`` is filled in by :meth:`CandidateTracker.compute_cplus`.
    Masks and ``C+`` take :func:`~repro._bitset.mask_dtype` of the
    schema's ``width`` (its number of attributes).  ``subsets``, when
    given, holds per level set and per attribute ``A`` of it (lowest
    first) the row of ``X∖{A}`` in the previous level, ``-1`` where it
    has none (:attr:`~repro.core.lattice.LevelCandidates.subsets`).
    :meth:`CandidateTracker.compute_cplus` fills it in when absent, and
    also keeps the subsets ``X∖{A}`` and their ranks in the previous
    level (``-1`` when that level lacks them), which the pair and prune
    steps read.
    """

    __slots__ = ("masks", "errors", "cplus", "subsets", "rhs", "lhs", "lhs_errors")

    def __init__(self, masks, errors, cplus=None, *, width: int, subsets=None) -> None:
        dtype = _bitset.mask_dtype(width)
        self.masks = np.asarray(masks, dtype=dtype)
        self.errors = np.asarray(errors, dtype=np.int64)
        self.cplus = None if cplus is None else np.asarray(cplus, dtype=dtype)
        self.subsets: np.ndarray | None = subsets
        self.rhs: np.ndarray | None = None
        self.lhs: np.ndarray | None = None
        self.lhs_errors: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.masks.size)

    def cplus_dict(self) -> dict[int, int]:
        """``C+`` keyed by mask, as Python ints (checkpoints)."""
        return dict(zip(self.masks.tolist(), self.cplus.tolist()))


class LevelPairs(NamedTuple):
    """The testable ``(X∖{A}) → A`` pairs of a level, in test order:
    level order, then rhs ascending."""

    rows: np.ndarray
    """Level row of ``X`` of every pair."""

    whole: np.ndarray
    """``X`` of every pair."""

    rhs: np.ndarray
    """``A`` of every pair (attribute index)."""

    lhs: np.ndarray
    """``X∖{A}`` of every pair."""

    lower: np.ndarray
    """``e(X∖{A}) − e(X)`` per pair: the O(1) g3 lower bound in rows."""

    @property
    def exact(self) -> np.ndarray:
        """Lemma 2 per pair: ``e(X∖{A}) == e(X)``."""
        return self.lower == 0

    def groups(self, selected: np.ndarray) -> list[tuple[int, list[tuple[int, int]]]]:
        """The selected pairs in the executor's group format."""
        groups: list[tuple[int, list[tuple[int, int]]]] = []
        for whole, rhs, lhs in zip(
            self.whole[selected].tolist(),
            self.rhs[selected].tolist(),
            self.lhs[selected].tolist(),
        ):
            if groups and groups[-1][0] == whole:
                groups[-1][1].append((rhs, lhs))
            else:
                groups.append((whole, [(rhs, lhs)]))
        return groups


class PairOutcomes(NamedTuple):
    """Validity outcomes of a level's pairs, aligned with :class:`LevelPairs`."""

    valid: np.ndarray
    exactly_valid: np.ndarray
    errors: list
    """Error per pair (``0.0`` for exact verdicts), as the measure
    returned it."""


def _lowest_bits(masks: np.ndarray) -> np.ndarray:
    """``(n, k)`` matrix of each mask's set bits, lowest first, for the
    largest popcount ``k``; rows of smaller masks end in zeros."""
    columns = []
    remaining = masks.copy()
    while True:
        low = remaining & -remaining
        if not low.any():
            break
        columns.append(low)
        remaining ^= low
    if not columns:
        return np.zeros((masks.size, 0), dtype=masks.dtype)
    return np.stack(columns, axis=1)


_bit_length = np.frompyfunc(int.bit_length, 1, 1)


def _bit_index(bits: np.ndarray) -> np.ndarray:
    """Attribute index of every single-bit mask (0 maps to -1), as
    ``int64``."""
    if bits.dtype == object:
        return _bit_length(bits).astype(np.int64) - 1
    # Powers of two up to 2**62 are exact in float64.
    return np.where(bits > 0, np.frexp(bits.astype(np.float64))[1] - 1, -1)


def _subset_rows(subsets: np.ndarray, known: np.ndarray) -> np.ndarray:
    """The row of every mask of ``subsets`` in the sorted masks
    ``known``, ``-1`` where absent, by one binary search: the
    :attr:`LevelArrays.subsets` of a level that lattice generation did
    not produce."""
    if known.size == 0:
        return np.full(subsets.shape, -1, dtype=np.intp)
    found = np.searchsorted(known, subsets)
    np.minimum(found, known.size - 1, out=found)
    found[known[found] != subsets] = -1
    return found


class CandidateTracker:
    """Per-run candidate state of one levelwise search.

    Parameters
    ----------
    full_mask:
        Bitmask of all attributes (``C+(∅) = R``).
    epsilon:
        The search threshold; ``0.0`` selects the exact-mode pruning
        rules (key deletion is only sound for exact discovery).
    use_rule8:
        Apply line 8 of COMPUTE-DEPENDENCIES (the rhs+ refinement).
    use_key_pruning:
        Apply the key pruning rule of Section 4.
    max_lhs_size:
        Lhs size limit; gates key-rule dependency emission on the
        boundary level.
    """

    def __init__(
        self,
        full_mask: int,
        *,
        epsilon: float = 0.0,
        use_rule8: bool = True,
        use_key_pruning: bool = True,
        max_lhs_size: int | None = None,
    ) -> None:
        self.full_mask = full_mask
        self.epsilon = epsilon
        self.use_rule8 = use_rule8
        self.use_key_pruning = use_key_pruning
        self.max_lhs_size = max_lhs_size
        self.dependencies = FDSet()
        self.keys: list[int] = []
        # Minimal-dependency lhs masks per rhs, for lazy C+ membership
        # evaluation in the key-pruning rule (see _lazy_cplus_member).
        self._lhs_by_rhs: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    # COMPUTE-DEPENDENCIES bookkeeping
    # ------------------------------------------------------------------

    def compute_cplus(self, level: LevelArrays, previous: LevelArrays) -> np.ndarray:
        """``C+(X) = ∩_{A∈X} C+(X∖{A})`` for every level set (Lemma 4).

        ``previous`` is the previous level with its ``cplus``; a subset
        missing from it contributes ``∅``.  The subsets' rows are
        ``level.subsets``; a level without them gets them from
        :func:`_subset_rows`, one search.  Returns the ``C+`` array, also
        stored as ``level.cplus``.
        """
        bits = _lowest_bits(level.masks)
        present = bits != 0
        subsets = level.masks[:, None] ^ bits
        if level.subsets is None:
            level.subsets = _subset_rows(subsets, previous.masks)
        found = level.subsets
        if previous.masks.size:
            hit = present & (found >= 0)
            parts = np.where(hit, previous.cplus[found], 0)
            level.lhs_errors = np.where(hit, previous.errors[found], -1)
        else:
            parts = np.zeros_like(subsets)
            level.lhs_errors = np.full(subsets.shape, -1, dtype=np.int64)
        parts[~present] = self.full_mask
        level.rhs = _bit_index(bits)
        level.lhs = subsets
        level.cplus = np.bitwise_and.reduce(parts, axis=1) & self.full_mask
        return level.cplus

    def testable_groups(self, level: LevelArrays, cplus: np.ndarray) -> LevelPairs:
        """The level's validity tests (``level`` after
        :meth:`compute_cplus`): every ``(X∖{A}) → A`` with ``A ∈ X ∩
        C+(X)``, in level order, each with its Lemma 2 rank test.

        The testable rhs set of each mask is fixed by ``cplus`` *before*
        any test runs, and test results only mutate that mask's own
        ``cplus`` entry, so the pairs are mutually independent — an
        execution backend may evaluate them in any order.
        """
        testable = (level.rhs >= 0) & (
            (cplus[:, None] >> np.maximum(level.rhs, 0)) & 1 == 1
        )
        rows, columns = np.nonzero(testable)
        return LevelPairs(
            rows=rows,
            whole=level.masks[rows],
            rhs=level.rhs[rows, columns],
            lhs=level.lhs[rows, columns],
            lower=level.lhs_errors[rows, columns] - level.errors[rows],
        )

    def apply_outcome(
        self,
        level: LevelArrays,
        pairs: LevelPairs,
        outcomes: PairOutcomes,
        cplus: np.ndarray,
    ) -> None:
        """Fold the validity outcomes of a level's pairs into ``C+``.

        A valid test records the minimal dependency and removes the
        rhs from ``C+(X)`` (line 7); when the dependency holds
        *exactly*, line 8 (exact) / lines 8'-9' (approximate)
        additionally remove all attributes outside ``X``.

        ``pairs`` are the level's pairs (:meth:`testable_groups`) and
        ``cplus`` its ``C+`` array, updated in place at the pairs' rows.
        Dependencies are recorded in pair order.
        """
        chosen = np.flatnonzero(outcomes.valid)
        if chosen.size == 0:
            return
        rhs = pairs.rhs[chosen]
        lhs = pairs.lhs[chosen]
        rows = pairs.rows[chosen]
        errors = outcomes.errors
        for lhs_mask, rhs_index, position in zip(
            lhs.tolist(), rhs.tolist(), chosen.tolist()
        ):
            self.add_dependency(
                FunctionalDependency(lhs_mask, rhs_index, errors[position])
            )
        # Shift in C+'s dtype: an int64 shift past bit 63 yields 0.
        rhs_bits = np.left_shift(np.ones(1, dtype=cplus.dtype), rhs.astype(cplus.dtype))
        found = np.zeros(cplus.size, dtype=cplus.dtype)
        np.bitwise_or.at(found, rows, rhs_bits)
        cplus &= ~found
        if self.use_rule8:
            exact_rows = rows[outcomes.exactly_valid[chosen]]
            cplus[exact_rows] &= level.masks[exact_rows]

    # ------------------------------------------------------------------
    # PRUNE
    # ------------------------------------------------------------------

    def prune(self, level: LevelArrays, cplus: np.ndarray, level_number: int) -> np.ndarray:
        """PRUNE (Section 5): empty-``C+`` pruning and key pruning.

        Superkeys are the sets with ``e(X) == 0``.  Key pruning —
        deleting a key ``X`` after emitting its dependencies — is only
        applied to *exact* discovery.  Its safety proof needs exact
        validity: a dependency ``Y → A`` normally tested at a pruned
        superset of the key is exactly valid only if ``Y`` is itself a
        superkey, and is then emitted by the key rule.  With
        ``epsilon > 0`` that implication fails (``Y → A`` can be
        approximately valid and minimal with ``Y`` not a superkey), so
        deleting keys would lose dependencies; in approximate mode keys
        are recorded but the search continues through them.

        Returns the surviving masks, as an array of the level's dtype.
        """
        superkey = level.errors == 0
        masks = level.masks
        if self.use_key_pruning and self.epsilon == 0.0:
            # Generation runs over non-superkeys only, so every superkey
            # that reaches a level is a minimal key.
            emit_key_rule_deps = (
                self.max_lhs_size is None or level_number <= self.max_lhs_size
            )
            stored: dict[int, int] | None = None
            key_rows = np.flatnonzero(superkey)
            for row, mask in zip(key_rows.tolist(), masks[key_rows].tolist()):
                self.keys.append(mask)
                key_cplus = int(cplus[row])
                if key_cplus and emit_key_rule_deps:
                    if stored is None:
                        stored = dict(zip(masks.tolist(), cplus.tolist()))
                    self._emit_key_rule_dependencies(mask, key_cplus, stored.get)
            return masks[~superkey & (cplus != 0)]
        if self.use_key_pruning:
            # Approximate mode keeps superkeys, so they reappear inside
            # larger sets: a key is minimal when no immediate subset is
            # a superkey.  ∅ does not count: on a relation of fewer than
            # two rows π_∅ has no stripped class, yet the empty set is
            # never a key — exact mode and UCC discovery never consider
            # it either.
            subset_is_key = (level.lhs_errors == 0) & (level.lhs != 0)
            minimal = superkey & ~subset_is_key.any(axis=1)
            self.keys.extend(masks[minimal].tolist())
        return masks[cplus != 0]

    def _emit_key_rule_dependencies(
        self,
        key_mask: int,
        key_cplus: int,
        stored_cplus: Callable[[int], int | None],
    ) -> None:
        """Lines 5-7 of PRUNE: output ``X -> A`` for a (super)key ``X``.

        ``X -> A`` is emitted for each rhs+ candidate ``A`` outside
        ``X`` that belongs to the rhs+ set of every same-level set
        ``X ∪ {A} \\ {B}``.  Such a sibling set may never have been
        *generated* (one of its subsets was key-pruned at a lower
        level); its mathematical ``C+`` membership is then evaluated
        lazily from the minimal dependencies discovered so far, which
        are complete for all left-hand sides smaller than the current
        level.  ``stored_cplus(sibling)`` is the sibling's ``C+`` when
        the level holds it, else ``None``.
        """
        outside = key_cplus & ~key_mask
        for rhs_index in _bitset.iter_bits(outside):
            rhs_bit = _bitset.bit(rhs_index)
            minimal = True
            for lhs_attr in _bitset.iter_bits(key_mask):
                sibling = (key_mask | rhs_bit) ^ _bitset.bit(lhs_attr)
                stored = stored_cplus(sibling)
                if stored is not None:
                    member = _bitset.contains(stored, rhs_index)
                else:
                    member = self._lazy_cplus_member(sibling, rhs_index)
                if not member:
                    minimal = False
                    break
            if minimal:
                self.add_dependency(FunctionalDependency(key_mask, rhs_index, 0.0))

    def _lazy_cplus_member(self, set_mask: int, attribute: int) -> bool:
        """Evaluate ``attribute ∈ C+(set_mask)`` from the definition.

        ``C+(Y) = {A ∈ R | for all B ∈ Y, Y∖{A,B} → B does not hold}``
        (Section 4).  The validity of ``Y∖{A,B} → B`` is decided
        against the minimal dependencies found so far: a dependency
        holds iff some discovered minimal dependency with the same rhs
        has its lhs contained in ``Y∖{A,B}``.  All the consulted
        left-hand sides are smaller than the current level, for which
        discovery is already complete, so the answer is exact.
        """
        a_bit = _bitset.bit(attribute)
        for b_index in _bitset.iter_bits(set_mask):
            lhs = set_mask & ~a_bit & ~_bitset.bit(b_index)
            if self._holds_by_discovered(lhs, b_index):
                return False
        return True

    def _holds_by_discovered(self, lhs_mask: int, rhs_index: int) -> bool:
        """True iff ``lhs_mask -> rhs_index`` follows from a discovered
        minimal dependency (some minimal lhs is contained in it)."""
        for minimal_lhs in self._lhs_by_rhs.get(rhs_index, ()):
            if minimal_lhs & ~lhs_mask == 0:
                return True
        return False

    # ------------------------------------------------------------------

    def add_dependency(self, dependency: FunctionalDependency) -> None:
        """Record a minimal dependency (also used by checkpoint restore)."""
        self.dependencies.add(dependency)
        self._lhs_by_rhs.setdefault(dependency.rhs, []).append(dependency.lhs)
