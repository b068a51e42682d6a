"""Unit tests for the CandidateTracker: C+/rhs+ maintenance and the
PRUNE rules, driven directly with hand-built levels and synthetic
outcomes (no partitions, no driver)."""

import numpy as np

from repro import _bitset
from repro.search.tracker import CandidateTracker, LevelArrays, PairOutcomes

A, B, C = _bitset.bit(0), _bitset.bit(1), _bitset.bit(2)
FULL = A | B | C
WIDTH = 3

EMPTY_SET = ([0], [1], [FULL])
"""Level 0 — ``∅`` with a rank of 1 and ``C+(∅) = R`` — as the
``(masks, ranks, C+)`` of a previous level."""


def _tracker(**kwargs):
    return CandidateTracker(FULL, **kwargs)


def _level(tracker, masks, errors, previous=EMPTY_SET, cplus=None):
    """Level ``masks`` with ranks ``errors`` after ``compute_cplus``
    against ``previous``; its ``C+`` then replaced by ``cplus`` if
    given."""
    level = LevelArrays(masks, errors, width=WIDTH)
    tracker.compute_cplus(level, LevelArrays(*previous, width=WIDTH))
    if cplus is not None:
        level.cplus = np.array(cplus, dtype=np.int64)
    return level


def _pairs(pairs):
    return list(zip(pairs.whole.tolist(), pairs.rhs.tolist(), pairs.lhs.tolist()))


class TestCplus:
    def test_level1_inherits_from_empty_set(self):
        level = _level(_tracker(), [A, B, C], [1, 1, 1])
        assert level.cplus.tolist() == [FULL, FULL, FULL]

    def test_lemma4_intersection(self):
        # C+(AB) = C+(A) ∩ C+(B).
        previous = ([A, B], [1, 1], [FULL & ~C, FULL])
        level = _level(_tracker(), [A | B], [1], previous)
        assert level.cplus.tolist() == [FULL & ~C]

    def test_missing_subset_empties_candidates(self):
        # A pruned subset (absent from the previous level) contributes ∅.
        level = _level(_tracker(), [A | B], [1], ([A], [1], [FULL]))
        assert level.cplus.tolist() == [0]


class TestTestableGroups:
    PREVIOUS = ([A, B], [1, 1], [FULL, FULL])

    def test_pairs_restricted_to_cplus(self):
        tracker = _tracker()
        level = _level(tracker, [A | B], [1], self.PREVIOUS, cplus=[A | C])
        pairs = tracker.testable_groups(level, level.cplus)
        # Only rhs 0 (attribute A) is in both the mask and C+.
        assert _pairs(pairs) == [(A | B, 0, B)]
        assert pairs.groups(np.arange(1)) == [((A | B), [(0, B)])]

    def test_empty_testable_set_skipped(self):
        tracker = _tracker()
        level = _level(tracker, [A | B], [1], self.PREVIOUS, cplus=[C])
        assert _pairs(tracker.testable_groups(level, level.cplus)) == []


class TestApplyOutcome:
    """``X = AB`` with both pairs testable; the first, ``B → A``, gets
    the outcome under test and the second, ``A → B``, fails."""

    @staticmethod
    def _apply(tracker, valid, exactly_valid, error=0.0):
        previous = ([A, B], [1, 1], [FULL, FULL])
        level = _level(tracker, [A | B], [1], previous)
        pairs = tracker.testable_groups(level, level.cplus)
        assert _pairs(pairs) == [(A | B, 0, B), (A | B, 1, A)]
        outcomes = PairOutcomes(
            np.array([valid, False]), np.array([exactly_valid, False]), [error, 0.0]
        )
        tracker.apply_outcome(level, pairs.rhs, pairs.lhs, outcomes, level.cplus)
        return int(level.cplus[0])

    def test_valid_records_and_removes_rhs(self):
        tracker = _tracker()
        # rhs A removed (line 7) and C removed by rule 8.
        assert self._apply(tracker, True, True) == B
        assert [(fd.lhs, fd.rhs) for fd in tracker.dependencies] == [(B, 0)]

    def test_rule8_disabled_keeps_outside_attributes(self):
        assert self._apply(_tracker(use_rule8=False), True, True) == B | C

    def test_approximate_validity_skips_rule8(self):
        tracker = _tracker(epsilon=0.1)
        assert self._apply(tracker, True, False, 0.05) == B | C
        assert [fd.error for fd in tracker.dependencies] == [0.05]

    def test_invalid_changes_nothing(self):
        tracker = _tracker()
        assert self._apply(tracker, False, False) == FULL
        assert len(tracker.dependencies) == 0


class TestPrune:
    def test_exact_key_pruning_deletes_keys(self):
        tracker = _tracker()
        level = _level(tracker, [A, B], [0, 1])
        surviving = tracker.prune(level, level.cplus, 1)
        assert tracker.keys == [A]
        assert surviving.tolist() == [B]

    def test_empty_cplus_pruned(self):
        tracker = _tracker()
        level = _level(tracker, [A, B], [1, 1], cplus=[0, FULL])
        assert tracker.prune(level, level.cplus, 1).tolist() == [B]

    def test_key_rule_emits_dependencies(self):
        # Key A with B and C in C+(A)∖A: the key rule emits A -> B and
        # A -> C.
        tracker = _tracker()
        level = _level(tracker, [A], [0])
        tracker.prune(level, level.cplus, 1)
        pairs = {(fd.lhs, fd.rhs) for fd in tracker.dependencies}
        assert (A, 1) in pairs and (A, 2) in pairs

    def test_approximate_mode_keeps_keys_in_level(self):
        tracker = _tracker(epsilon=0.1)
        level = _level(tracker, [A, B], [0, 1])
        surviving = tracker.prune(level, level.cplus, 1)
        # Key recorded but not deleted: deletion is exact-only.
        assert tracker.keys == [A]
        assert surviving.tolist() == [A, B]

    def test_approximate_minimality_check(self):
        tracker = _tracker(epsilon=0.1)
        # Both A and AB are superkeys; only A is a minimal key.
        level = _level(tracker, [A], [0])
        tracker.prune(level, level.cplus, 1)
        level = _level(tracker, [A | B], [0], ([A, B], [0, 1], [FULL, FULL]))
        tracker.prune(level, level.cplus, 2)
        assert tracker.keys == [A]

    def test_approximate_minimality_ignores_the_empty_set(self):
        # Below two rows π_∅ has no stripped class; ∅ is still no key.
        tracker = _tracker(epsilon=0.1)
        level = _level(tracker, [A, B], [0, 0], ([0], [0], [FULL]))
        tracker.prune(level, level.cplus, 1)
        assert tracker.keys == [A, B]

    def test_key_pruning_disabled(self):
        tracker = _tracker(use_key_pruning=False)
        level = _level(tracker, [A], [0])
        surviving = tracker.prune(level, level.cplus, 1)
        assert tracker.keys == []
        assert surviving.tolist() == [A]
