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

The tracker is pure candidate logic: it touches partitions only
through an injected ``is_superkey(mask)`` predicate, so it unit-tests
against a hand-built lattice with no partitions at all.  The
minimal-unique split at the heart of key pruning is exposed as
:meth:`CandidateTracker.split_minimal_unique` and shared with UCC
discovery (:mod:`repro.core.uccs`), which is the same rule applied to
uniqueness instead of superkey-ness — the two can no longer drift.

Two level representations
-------------------------
Every step takes a level in one of two forms:

* **Python ints** — a list of masks with ``C+`` in a ``dict``, and
  superkeys decided by the injected predicate.  It works for any
  number of attributes and is the reference for the other form.
* **Arrays** — a :class:`LevelArrays`: sorted ``int64`` masks, their
  ranks ``e(X) = ||π̂_X|| - |π̂_X|`` and ``C+`` as an ``int64``
  bitmask, for schemas of at most
  :data:`~repro.core.lattice.MAX_ARRAY_ATTRIBUTES` attributes.  Each
  step is then a fixed number of numpy passes over the level: the
  Lemma 4 intersection looks every ``X∖{A}`` up in the previous
  level's sorted masks, the Lemma 2 test compares two rank arrays,
  keys are ``e(X) == 0``, and the ``C+`` updates are bitwise.  Python
  loops remain only where the search records something — dependencies
  and keys — and in the key rule, which visits the level's few keys.

Both forms record dependencies and keys in the same order.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro import _bitset
from repro.model.fd import FDSet, FunctionalDependency

__all__ = ["CandidateTracker", "LevelArrays", "LevelPairs", "PairOutcomes"]


class LevelArrays:
    """One lattice level as aligned arrays (the array form).

    ``masks`` ascend; ``errors[i]`` is ``e(X)`` of ``masks[i]``;
    ``cplus`` is filled in by :meth:`CandidateTracker.compute_cplus`.
    That step also keeps, per level set and per attribute ``A`` of it
    (lowest first), the subset ``X∖{A}`` and its rank in the previous
    level (``-1`` when that level lacks it), which the pair and prune
    steps read.
    """

    __slots__ = ("masks", "errors", "cplus", "rhs", "lhs", "lhs_errors")

    def __init__(self, masks, errors, cplus=None) -> None:
        self.masks = np.asarray(masks, dtype=np.int64)
        self.errors = np.asarray(errors, dtype=np.int64)
        self.cplus = None if cplus is None else np.asarray(cplus, dtype=np.int64)
        self.rhs: np.ndarray | None = None
        self.lhs: np.ndarray | None = None
        self.lhs_errors: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.masks.size)

    def cplus_dict(self) -> dict[int, int]:
        """``C+`` in the Python-int form (checkpoints, hooks)."""
        return dict(zip(self.masks.tolist(), self.cplus.tolist()))


class LevelPairs(NamedTuple):
    """The testable ``(X∖{A}) → A`` pairs of a level, in test order:
    level order, then rhs ascending."""

    whole: np.ndarray
    """``X`` of every pair."""

    rhs: np.ndarray
    """``A`` of every pair (attribute index)."""

    lhs: np.ndarray
    """``X∖{A}`` of every pair."""

    exact: np.ndarray
    """Lemma 2 per pair: ``e(X∖{A}) == e(X)``."""

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
        return np.zeros((masks.size, 0), dtype=np.int64)
    return np.stack(columns, axis=1)


def _bit_index(bits: np.ndarray) -> np.ndarray:
    """Attribute index of every single-bit mask (0 maps to -1)."""
    # Powers of two up to 2**62 are exact in float64.
    return np.where(bits > 0, np.frexp(bits.astype(np.float64))[1] - 1, -1)


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

    def compute_cplus(self, level, cplus_prev):
        """``C+(X) = ∩_{A∈X} C+(X∖{A})`` for every level set (Lemma 4).

        Python-int form: ``level`` is a list of masks and ``cplus_prev``
        the previous level's ``C+`` dict; returns this level's dict.
        Array form: ``level`` and ``cplus_prev`` are :class:`LevelArrays`
        (the previous one with its ``cplus``); returns the ``C+`` array,
        also stored as ``level.cplus``.  A subset missing from the
        previous level contributes ``∅`` in both forms.
        """
        if isinstance(level, LevelArrays):
            return self._compute_cplus_arrays(level, cplus_prev)
        cplus: dict[int, int] = {}
        for mask in level:
            candidates = self.full_mask
            for _, subset in _bitset.iter_subsets_one_smaller(mask):
                candidates &= cplus_prev.get(subset, 0)
                if candidates == 0:
                    break
            cplus[mask] = candidates
        return cplus

    def _compute_cplus_arrays(
        self, level: LevelArrays, previous: LevelArrays
    ) -> np.ndarray:
        bits = _lowest_bits(level.masks)
        present = bits != 0
        subsets = level.masks[:, None] ^ bits
        known = previous.masks
        found = np.searchsorted(known, subsets)
        np.minimum(found, max(known.size - 1, 0), out=found)
        if known.size:
            hit = present & (known[found] == subsets)
            parts = np.where(hit, previous.cplus[found], 0)
            level.lhs_errors = np.where(hit, previous.errors[found], -1)
        else:
            parts = np.zeros_like(subsets)
            level.lhs_errors = np.full_like(subsets, -1)
        parts[~present] = self.full_mask
        level.rhs = _bit_index(bits)
        level.lhs = subsets
        level.cplus = np.bitwise_and.reduce(parts, axis=1) & self.full_mask
        return level.cplus

    def testable_groups(self, level, cplus):
        """The level's validity tests.

        Python-int form: ``(whole_mask, [(rhs, lhs)])`` groups.  The
        testable rhs set of each mask is fixed by ``cplus`` *before*
        any test runs, and test results only mutate that mask's own
        ``cplus`` entry, so the groups are mutually independent — an
        execution backend may shard them freely.

        Array form (``level`` a :class:`LevelArrays` after
        :meth:`compute_cplus`): the same pairs, in the same order, as
        :class:`LevelPairs`, each with its Lemma 2 rank test.
        """
        if isinstance(level, LevelArrays):
            testable = (level.rhs >= 0) & (
                (cplus[:, None] >> np.maximum(level.rhs, 0)) & 1 == 1
            )
            rows, columns = np.nonzero(testable)
            return LevelPairs(
                whole=level.masks[rows],
                rhs=level.rhs[rows, columns],
                lhs=level.lhs[rows, columns],
                exact=level.lhs_errors[rows, columns] == level.errors[rows],
            )
        groups: list[tuple[int, list[tuple[int, int]]]] = []
        for mask in level:
            testable = mask & cplus[mask]
            if testable == 0:
                continue
            pairs = [
                (rhs_index, lhs_mask)
                for rhs_index, lhs_mask in _bitset.iter_subsets_one_smaller(mask)
                if _bitset.contains(testable, rhs_index)
            ]
            groups.append((mask, pairs))
        return groups

    def apply_outcome(self, mask, rhs_index, lhs_mask, outcome, cplus) -> None:
        """Fold one validity outcome into the candidate state.

        A valid test records the minimal dependency and removes the
        rhs from ``C+(mask)`` (line 7); when the dependency holds
        *exactly*, line 8 (exact) / lines 8'-9' (approximate)
        additionally remove all attributes outside ``X``.

        Array form: ``mask`` is the :class:`LevelArrays`, ``rhs_index``
        and ``lhs_mask`` are the pairs' arrays, ``outcome`` is their
        :class:`PairOutcomes` and ``cplus`` the level's ``C+`` array,
        updated in place.  Dependencies are recorded in pair order.
        """
        if isinstance(mask, LevelArrays):
            self._apply_outcomes_arrays(mask, rhs_index, lhs_mask, outcome, cplus)
            return
        if outcome.valid:
            self.add_dependency(
                FunctionalDependency(lhs_mask, rhs_index, outcome.error)
            )
            cplus[mask] &= ~_bitset.bit(rhs_index)
            if self.use_rule8 and outcome.exactly_valid:
                cplus[mask] &= mask

    def _apply_outcomes_arrays(
        self,
        level: LevelArrays,
        rhs: np.ndarray,
        lhs: np.ndarray,
        outcomes: PairOutcomes,
        cplus: np.ndarray,
    ) -> None:
        chosen = np.flatnonzero(outcomes.valid)
        if chosen.size == 0:
            return
        rhs = rhs[chosen]
        lhs = lhs[chosen]
        errors = outcomes.errors
        for lhs_mask, rhs_index, position in zip(
            lhs.tolist(), rhs.tolist(), chosen.tolist()
        ):
            self.add_dependency(
                FunctionalDependency(lhs_mask, rhs_index, errors[position])
            )
        rhs_bits = np.left_shift(1, rhs)
        rows = np.searchsorted(level.masks, lhs | rhs_bits)
        found = np.zeros(cplus.size, dtype=np.int64)
        np.bitwise_or.at(found, rows, rhs_bits)
        cplus &= ~found
        if self.use_rule8:
            exact_rows = rows[outcomes.exactly_valid[chosen]]
            cplus[exact_rows] &= level.masks[exact_rows]

    # ------------------------------------------------------------------
    # PRUNE
    # ------------------------------------------------------------------

    @staticmethod
    def split_minimal_unique(
        level: list[int], is_unique: Callable[[int], bool]
    ) -> tuple[list[int], list[int]]:
        """Split a level into (minimal unique sets, the rest), in order.

        The shared kernel of key pruning and UCC discovery: when
        candidates are generated aprioristically over the *non-unique*
        sets, any unique set reaching a level is minimal — its unique
        subsets would have been removed, preventing its generation.
        """
        unique: list[int] = []
        rest: list[int] = []
        for mask in level:
            (unique if is_unique(mask) else rest).append(mask)
        return unique, rest

    def prune(self, level, cplus, level_number: int, is_superkey: Callable[[int], bool]):
        """PRUNE (Section 5): empty-``C+`` pruning and key pruning.

        Key pruning — deleting a key ``X`` after emitting its
        dependencies — is only applied to *exact* discovery.  Its
        safety proof needs exact validity: a dependency ``Y → A``
        normally tested at a pruned superset of the key is exactly
        valid only if ``Y`` is itself a superkey, and is then emitted
        by the key rule.  With ``epsilon > 0`` that implication fails
        (``Y → A`` can be approximately valid and minimal with ``Y``
        not a superkey), so deleting keys would lose dependencies; in
        approximate mode keys are recorded but the search continues
        through them.

        Returns the surviving masks.  Array form (``level`` a
        :class:`LevelArrays`, ``cplus`` its array): superkeys are the
        sets with ``e(X) == 0`` and ``is_superkey`` is not consulted;
        the survivors come back as an ``int64`` array.
        """
        if isinstance(level, LevelArrays):
            return self._prune_arrays(level, cplus, level_number)
        exact = self.epsilon == 0.0
        emit_key_rule_deps = (
            self.max_lhs_size is None or level_number <= self.max_lhs_size
        )
        if self.use_key_pruning and exact:
            found, rest = self.split_minimal_unique(level, is_superkey)
            for mask in found:
                self.keys.append(mask)
                if cplus[mask] and emit_key_rule_deps:
                    self._emit_key_rule_dependencies(mask, cplus[mask], cplus.get)
            return [mask for mask in rest if cplus[mask] != 0]
        surviving: list[int] = []
        for mask in level:
            if self.use_key_pruning and is_superkey(mask):
                # Approximate mode: record the key if it is minimal
                # (no immediate subset is a superkey), but keep it.
                if self._is_minimal_key(mask, is_superkey):
                    self.keys.append(mask)
            if cplus[mask] == 0:
                continue
            surviving.append(mask)
        return surviving

    def _prune_arrays(
        self, level: LevelArrays, cplus: np.ndarray, level_number: int
    ) -> np.ndarray:
        superkey = level.errors == 0
        if self.use_key_pruning and self.epsilon == 0.0:
            emit_key_rule_deps = (
                self.max_lhs_size is None or level_number <= self.max_lhs_size
            )
            masks = level.masks
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
            # Minimal keys: no immediate subset other than ∅ is a
            # superkey (see _is_minimal_key).
            subset_is_key = (level.lhs_errors == 0) & (level.lhs != 0)
            minimal = superkey & ~subset_is_key.any(axis=1)
            self.keys.extend(level.masks[minimal].tolist())
        return level.masks[cplus != 0]

    def _is_minimal_key(
        self, mask: int, is_superkey: Callable[[int], bool]
    ) -> bool:
        """True if ``mask`` is a superkey and no immediate subset is.

        Only needed in approximate mode, where superkeys are not
        deleted and can therefore reappear inside larger sets.  ``∅``
        does not count: on a relation of fewer than two rows ``π_∅``
        has no stripped class, yet the empty set is never a key —
        exact mode and UCC discovery never consider it either.
        """
        for _, subset in _bitset.iter_subsets_one_smaller(mask):
            if subset and is_superkey(subset):
                return False
        return True

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
