"""Unit tests for the CandidateTracker: C+/rhs+ maintenance and the
PRUNE rules, driven directly with synthetic outcomes (no partitions,
no driver)."""

from repro import _bitset
from repro.search.measures import ValidityOutcome
from repro.search.tracker import CandidateTracker

A, B, C = _bitset.bit(0), _bitset.bit(1), _bitset.bit(2)
FULL = A | B | C

VALID_EXACT = ValidityOutcome(True, True, 0.0, False, False)
VALID_APPROX = ValidityOutcome(True, False, 0.05, False, True)
INVALID = ValidityOutcome(False, False, 0.0, False, False)


def _tracker(**kwargs):
    return CandidateTracker(FULL, **kwargs)


class TestCplus:
    def test_level1_inherits_from_empty_set(self):
        cplus = _tracker().compute_cplus([A, B, C], {0: FULL})
        assert cplus == {A: FULL, B: FULL, C: FULL}

    def test_lemma4_intersection(self):
        # C+(AB) = C+(A) ∩ C+(B).
        cplus_prev = {A: FULL & ~C, B: FULL}
        cplus = _tracker().compute_cplus([A | B], cplus_prev)
        assert cplus[A | B] == FULL & ~C

    def test_missing_subset_empties_candidates(self):
        # A pruned subset (absent from cplus_prev) contributes ∅.
        cplus = _tracker().compute_cplus([A | B], {A: FULL})
        assert cplus[A | B] == 0


class TestTestableGroups:
    def test_pairs_restricted_to_cplus(self):
        tracker = _tracker()
        groups = tracker.testable_groups([A | B], {A | B: A | C})
        # Only rhs 0 (attribute A) is in both the mask and C+.
        assert groups == [((A | B), [(0, B)])]

    def test_empty_testable_set_skipped(self):
        tracker = _tracker()
        assert tracker.testable_groups([A | B], {A | B: C}) == []


class TestApplyOutcome:
    def test_valid_records_and_removes_rhs(self):
        tracker = _tracker()
        cplus = {A | B: FULL}
        tracker.apply_outcome(A | B, 0, B, VALID_EXACT, cplus)
        assert len(tracker.dependencies) == 1
        # rhs A removed (line 7) and C removed by rule 8.
        assert cplus[A | B] == B

    def test_rule8_disabled_keeps_outside_attributes(self):
        tracker = _tracker(use_rule8=False)
        cplus = {A | B: FULL}
        tracker.apply_outcome(A | B, 0, B, VALID_EXACT, cplus)
        assert cplus[A | B] == B | C

    def test_approximate_validity_skips_rule8(self):
        tracker = _tracker(epsilon=0.1)
        cplus = {A | B: FULL}
        tracker.apply_outcome(A | B, 0, B, VALID_APPROX, cplus)
        assert cplus[A | B] == B | C

    def test_invalid_changes_nothing(self):
        tracker = _tracker()
        cplus = {A | B: FULL}
        tracker.apply_outcome(A | B, 0, B, INVALID, cplus)
        assert len(tracker.dependencies) == 0
        assert cplus[A | B] == FULL


class TestSplitMinimalUnique:
    def test_partition_preserves_order(self):
        unique, rest = CandidateTracker.split_minimal_unique(
            [A, B, C], lambda mask: mask == B
        )
        assert unique == [B]
        assert rest == [A, C]

    def test_all_unique(self):
        unique, rest = CandidateTracker.split_minimal_unique(
            [C, A], lambda mask: True
        )
        assert unique == [C, A] and rest == []


class TestPrune:
    def test_exact_key_pruning_deletes_keys(self):
        tracker = _tracker()
        surviving = tracker.prune(
            [A, B], {A: FULL, B: FULL}, 1, lambda mask: mask == A
        )
        assert tracker.keys == [A]
        assert surviving == [B]

    def test_empty_cplus_pruned(self):
        tracker = _tracker()
        surviving = tracker.prune(
            [A, B], {A: 0, B: FULL}, 1, lambda mask: False
        )
        assert surviving == [B]

    def test_key_rule_emits_dependencies(self):
        # Key A with C+(A) containing B: the key rule emits A -> B
        # (B outside... actually B in C+(A)\A and A a superkey).
        tracker = _tracker()
        tracker.prune([A], {A: FULL}, 1, lambda mask: True)
        pairs = {(fd.lhs, fd.rhs) for fd in tracker.dependencies}
        assert (A, 1) in pairs and (A, 2) in pairs

    def test_approximate_mode_keeps_keys_in_level(self):
        tracker = _tracker(epsilon=0.1)
        surviving = tracker.prune(
            [A, B], {A: FULL, B: FULL}, 1, lambda mask: mask == A
        )
        # Key recorded but not deleted: deletion is exact-only.
        assert tracker.keys == [A]
        assert surviving == [A, B]

    def test_approximate_minimality_check(self):
        tracker = _tracker(epsilon=0.1)
        # Both A and AB are superkeys; only A is a minimal key.
        is_superkey = lambda mask: mask in (A, A | B)
        tracker.prune([A], {A: FULL}, 1, is_superkey)
        tracker.prune([A | B], {A | B: FULL}, 2, is_superkey)
        assert tracker.keys == [A]

    def test_approximate_minimality_ignores_the_empty_set(self):
        # Below two rows π_∅ has no stripped class; ∅ is still no key.
        tracker = _tracker(epsilon=0.1)
        tracker.prune([A, B], {A: FULL, B: FULL}, 1, lambda mask: True)
        assert tracker.keys == [A, B]

    def test_key_pruning_disabled(self):
        tracker = _tracker(use_key_pruning=False)
        surviving = tracker.prune([A], {A: FULL}, 1, lambda mask: True)
        assert tracker.keys == []
        assert surviving == [A]
