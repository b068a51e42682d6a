"""End-to-end contract of the top-k strategy: its result must equal
the rank-truncation of the full levelwise cover (validated against the
independent bruteforce oracle), it must round-trip through the
checkpoint/resume machinery, and its redundancy rank mode must spread
the k slots instead of letting clustered near-duplicates monopolize
them."""

import numpy as np
import pytest

from repro import _bitset
from repro.baselines.bruteforce import discover_fds_bruteforce
from repro.core.tane import TaneConfig, discover
from repro.datasets.synthetic import random_relation, zipf_relation
from repro.model.fd import FunctionalDependency
from repro.model.relation import Relation
from repro.search.strategy import redundancy_overlap, redundancy_rank

from ..conftest import level_opens, tracer_calling


def _rank(triple):
    lhs, rhs, error = triple
    return (error, _bitset.popcount(lhs), lhs, rhs)


def _triples(dependencies):
    return sorted(((fd.lhs, fd.rhs, fd.error) for fd in dependencies), key=_rank)


def _expected_topk(relation, k, *, epsilon=0.0, measure="g3"):
    full = discover_fds_bruteforce(relation, epsilon, None, measure)
    return _triples(full)[:k]


def _actual_topk(relation, k, *, epsilon=0.0, measure="g3", **kwargs):
    result = discover(relation, TaneConfig(
        epsilon=epsilon, measure=measure, strategy="topk", top_k=k, **kwargs
    ))
    return _triples(result.dependencies)


class TestAgainstBruteforce:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_exact_topk(self, seed, k):
        relation = random_relation(24, 4, 3, seed=seed)
        assert _actual_topk(relation, k) == _expected_topk(relation, k)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("epsilon,measure", [
        (0.1, "g3"), (0.05, "g1"), (0.2, "g2"),
    ])
    def test_approximate_topk(self, seed, epsilon, measure):
        relation = zipf_relation(30, 4, domain_size=4, seed=seed)
        actual = _actual_topk(relation, 3, epsilon=epsilon, measure=measure)
        expected = _expected_topk(relation, 3, epsilon=epsilon, measure=measure)
        assert actual == expected

    def test_k_larger_than_cover(self, figure1_relation):
        full = discover(figure1_relation, TaneConfig())
        topk = _actual_topk(figure1_relation, 1000)
        assert topk == _triples(full.dependencies)


class TestEarlyStop:
    def test_exact_mode_skips_deep_levels(self):
        relation = random_relation(24, 5, 3, seed=7)
        full = discover(relation, TaneConfig())
        topk = discover(relation, TaneConfig(strategy="topk", top_k=1))
        full_levels = len(full.statistics.level_sizes)
        topk_levels = len(topk.statistics.level_sizes)
        assert topk_levels <= full_levels
        assert topk.statistics.validity_tests <= full.statistics.validity_tests


class _Interrupt(Exception):
    pass


def _interrupt_at(level):
    """A tracer raising :class:`_Interrupt` when ``level`` opens."""
    def interrupt(span):
        if level_opens(span, level):
            raise _Interrupt
    return tracer_calling(interrupt)


class TestCheckpointResume:
    def test_resumed_topk_equals_uninterrupted(self, tmp_path):
        relation = random_relation(24, 5, 3, seed=11)
        k = 4
        uninterrupted = _actual_topk(relation, k)

        with pytest.raises(_Interrupt):
            discover(relation, TaneConfig(
                strategy="topk", top_k=k,
                checkpoint_dir=tmp_path, tracer=_interrupt_at(2),
            ))
        assert (tmp_path / "checkpoint.json").exists()
        resumed = discover(relation, TaneConfig(
            strategy="topk", top_k=k, checkpoint_dir=tmp_path, resume=True,
        ))
        assert _triples(resumed.dependencies) == uninterrupted

    def test_fingerprint_rejects_other_strategy(self, tmp_path):
        from repro.exceptions import CheckpointError

        relation = random_relation(24, 5, 3, seed=11)
        with pytest.raises(_Interrupt):
            discover(relation, TaneConfig(
                checkpoint_dir=tmp_path, tracer=_interrupt_at(2),
            ))
        with pytest.raises(CheckpointError):
            discover(relation, TaneConfig(
                strategy="topk", top_k=4, checkpoint_dir=tmp_path, resume=True,
            ))

    def test_fingerprint_rejects_different_k(self, tmp_path):
        from repro.exceptions import CheckpointError

        relation = random_relation(24, 5, 3, seed=11)
        with pytest.raises(_Interrupt):
            discover(relation, TaneConfig(
                strategy="topk", top_k=2,
                checkpoint_dir=tmp_path, tracer=_interrupt_at(2),
            ))
        with pytest.raises(CheckpointError):
            discover(relation, TaneConfig(
                strategy="topk", top_k=3, checkpoint_dir=tmp_path, resume=True,
            ))


class TestRedundancyOverlap:
    def test_entailment_pair_is_maximally_redundant(self):
        smaller = FunctionalDependency(0b001, 3)
        larger = FunctionalDependency(0b011, 3)
        assert redundancy_overlap(smaller, larger) == 1.0
        assert redundancy_overlap(larger, smaller) == 1.0

    def test_disjoint_dependencies_share_nothing(self):
        left = FunctionalDependency(0b0001, 1)
        right = FunctionalDependency(0b0100, 3)
        assert redundancy_overlap(left, right) == 0.0

    def test_partial_overlap_is_jaccard(self):
        # {0,1} -> 2 vs {2} -> 3: attribute sets {0,1,2} and {2,3}
        # share one of four attributes.
        left = FunctionalDependency(0b011, 2)
        right = FunctionalDependency(0b100, 3)
        assert redundancy_overlap(left, right) == pytest.approx(1 / 4)


class TestRedundancyRankUnit:
    def test_clustered_duplicates_cannot_monopolize(self):
        # Two dependencies off the same determinant plus one from a
        # disjoint corner of the schema.  Error rank takes the cluster;
        # redundancy rank spends the second slot on the outsider.
        cluster_a = FunctionalDependency(0b000001, 1)
        cluster_b = FunctionalDependency(0b000001, 2)
        outsider = FunctionalDependency(0b010000, 5)
        pool = [cluster_a, cluster_b, outsider]
        assert redundancy_rank(pool, 2) == [cluster_a, outsider]

    def test_k_covers_pool_keeps_everything(self):
        pool = [FunctionalDependency(0b01, 2), FunctionalDependency(0b10, 3)]
        assert sorted(redundancy_rank(pool, 10), key=_rank2) == sorted(
            pool, key=_rank2
        )

    def test_empty_pool(self):
        assert redundancy_rank([], 3) == []

    def test_first_pick_is_the_error_rank_winner(self):
        best = FunctionalDependency(0b01, 2, error=0.0)
        worse = FunctionalDependency(0b10, 3, error=0.1)
        assert redundancy_rank([worse, best], 1) == [best]


def _rank2(fd):
    return (fd.error, _bitset.popcount(fd.lhs), fd.lhs, fd.rhs)


def _clustered_relation():
    """One hub determinant driving three columns, plus a disjoint pair.

    The hub's dependencies are near-duplicates (identical lhs, shared
    attributes); the spoke pair lives in its own corner of the schema.
    """
    rng = np.random.default_rng(17)
    hub = rng.integers(0, 6, size=80, dtype=np.int64)
    spoke = rng.integers(0, 6, size=80, dtype=np.int64)
    columns = [
        hub,
        hub % 2,
        hub % 3,
        (hub * 5 + 1) % 6,
        spoke,
        spoke % 2,
    ]
    return Relation.from_codes(columns, [f"c{i}" for i in range(len(columns))])


class TestRedundancyRankEndToEnd:
    def test_matches_reranked_full_cover(self):
        # Pinned parity: the redundancy-ranked top-k must equal the
        # greedy re-ranking of the complete levelwise cover.
        relation = _clustered_relation()
        k = 3
        full = discover(relation, TaneConfig())
        expected = sorted(redundancy_rank(full.dependencies, k), key=_rank2)
        result = discover(relation, TaneConfig(
            strategy="topk", top_k=k, topk_rank="redundancy",
        ))
        assert sorted(result.dependencies, key=_rank2) == expected

    def test_diversifies_where_error_rank_clusters(self):
        relation = _clustered_relation()
        k = 3
        by_error = discover(relation, TaneConfig(strategy="topk", top_k=k))
        by_redundancy = discover(relation, TaneConfig(
            strategy="topk", top_k=k, topk_rank="redundancy",
        ))
        error_picks = {(fd.lhs, fd.rhs) for fd in by_error.dependencies}
        redundancy_picks = {(fd.lhs, fd.rhs) for fd in by_redundancy.dependencies}
        assert error_picks != redundancy_picks
        # The redundancy ranking reaches the spoke corner of the
        # schema; the error ranking's k slots all orbit the hub.
        spoke_mask = 0b110000
        assert any(
            (fd.lhs | _bitset.bit(fd.rhs)) & spoke_mask
            for fd in by_redundancy.dependencies
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_reranked_cover_parity_on_random_relations(self, seed):
        relation = random_relation(30, 5, 3, seed=seed)
        k = 4
        full = discover(relation, TaneConfig())
        expected = sorted(redundancy_rank(full.dependencies, k), key=_rank2)
        result = discover(relation, TaneConfig(
            strategy="topk", top_k=k, topk_rank="redundancy",
        ))
        assert sorted(result.dependencies, key=_rank2) == expected

    def test_resumed_redundancy_run_equals_uninterrupted(self, tmp_path):
        relation = _clustered_relation()
        k = 3
        uninterrupted = discover(relation, TaneConfig(
            strategy="topk", top_k=k, topk_rank="redundancy",
        ))
        with pytest.raises(_Interrupt):
            discover(relation, TaneConfig(
                strategy="topk", top_k=k, topk_rank="redundancy",
                checkpoint_dir=tmp_path, tracer=_interrupt_at(2),
            ))
        resumed = discover(relation, TaneConfig(
            strategy="topk", top_k=k, topk_rank="redundancy",
            checkpoint_dir=tmp_path, resume=True,
        ))
        assert _triples(resumed.dependencies) == _triples(
            uninterrupted.dependencies
        )

    def test_fingerprint_rejects_other_rank_mode(self, tmp_path):
        from repro.exceptions import CheckpointError

        relation = random_relation(24, 5, 3, seed=11)
        with pytest.raises(_Interrupt):
            discover(relation, TaneConfig(
                strategy="topk", top_k=3, topk_rank="redundancy",
                checkpoint_dir=tmp_path, tracer=_interrupt_at(2),
            ))
        with pytest.raises(CheckpointError):
            discover(relation, TaneConfig(
                strategy="topk", top_k=3, checkpoint_dir=tmp_path, resume=True,
            ))
