"""End-to-end contract of the DFD random-walk strategy.

Completeness: whatever path the seeded walk takes, the minimal cover
(and every per-FD error) must equal the levelwise reference —
validated here across datasets, seeds, thresholds and lhs caps.
Determinism: the same seed replays the identical walk, test for test.
Resume: an interrupted walk restored from a mid-walk checkpoint must
reach the identical result *and* the identical validity-test count
(the replay store makes resumed classification bit-compatible).
"""

import json
from pathlib import Path

import pytest

from repro import _bitset
from repro.core.tane import TaneConfig, discover
from repro.datasets.csvio import read_csv
from repro.datasets.synthetic import (
    planted_fd_relation,
    random_relation,
    twin_relation,
    zipf_relation,
)
from repro.exceptions import CheckpointError, ConfigurationError
from repro.search.dfd import DfdStrategy, minimal_hitting_sets

from ..conftest import level_opens, tracer_calling


def _cover(result):
    return sorted((fd.lhs, fd.rhs, fd.error) for fd in result.dependencies)


def _discover(relation, strategy, **kwargs):
    return discover(relation, TaneConfig(strategy=strategy, **kwargs))


class TestMinimalHittingSets:
    def test_empty_family_has_empty_transversal(self):
        assert minimal_hitting_sets([], cap=4) == [0]

    def test_empty_set_member_kills_all_transversals(self):
        assert minimal_hitting_sets([0b101, 0], cap=4) == []

    def test_single_set_yields_its_singletons(self):
        assert sorted(minimal_hitting_sets([0b101], cap=4)) == [0b001, 0b100]

    def test_two_disjoint_sets_need_one_bit_each(self):
        result = sorted(minimal_hitting_sets([0b0011, 0b1100], cap=4))
        assert result == [0b0101, 0b0110, 0b1001, 0b1010]

    def test_shared_bit_plus_the_outer_pair(self):
        # {a,b} and {b,c}: hit both with {b} alone, or with {a,c}.
        assert sorted(minimal_hitting_sets([0b011, 0b110], cap=4)) == [
            0b010, 0b101,
        ]

    def test_minimality_no_transversal_contains_another(self):
        sets = [0b1011, 0b0110, 0b1101]
        result = minimal_hitting_sets(sets, cap=4)
        for t in result:
            assert all(t & s for s in sets)
            for other in result:
                if other != t:
                    assert other & ~t != 0

    def test_cap_prunes_wide_transversals(self):
        sets = [0b0001, 0b0010, 0b0100]
        assert minimal_hitting_sets(sets, cap=2) == []
        assert minimal_hitting_sets(sets, cap=3) == [0b0111]


class TestStrategyValidation:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            DfdStrategy(seed=-1)

    def test_fingerprint_carries_seed(self):
        assert DfdStrategy(seed=9).fingerprint() == {
            "strategy": "dfd",
            "seed": 9,
            "walk": "per-rhs",
        }


class TestParityWithLevelwise:
    @pytest.mark.parametrize("seed", range(8))
    def test_exact_cover_on_random_relations(self, seed):
        relation = random_relation(40, 6, 3, seed=seed)
        reference = _discover(relation, "levelwise")
        walked = _discover(relation, "dfd", dfd_seed=seed)
        assert _cover(walked) == _cover(reference)

    @pytest.mark.parametrize("walk_seed", [0, 1, 7, 123])
    def test_walk_seed_never_changes_the_cover(self, figure1_relation, walk_seed):
        reference = _discover(figure1_relation, "levelwise")
        walked = _discover(figure1_relation, "dfd", dfd_seed=walk_seed)
        assert _cover(walked) == _cover(reference)

    @pytest.mark.parametrize("epsilon,measure", [
        (0.05, "g3"), (0.2, "g3"), (0.1, "g1"), (0.15, "pdep"),
    ])
    def test_approximate_cover_matches(self, epsilon, measure):
        relation = zipf_relation(30, 5, domain_size=4, seed=3)
        reference = _discover(relation, "levelwise", epsilon=epsilon,
                              measure=measure)
        walked = _discover(relation, "dfd", epsilon=epsilon, measure=measure)
        assert _cover(walked) == _cover(reference)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_lhs_cap_respected(self, cap):
        relation = random_relation(36, 6, 3, seed=5)
        reference = _discover(relation, "levelwise", max_lhs_size=cap)
        walked = _discover(relation, "dfd", max_lhs_size=cap)
        assert _cover(walked) == _cover(reference)
        assert all(
            _bitset.popcount(fd.lhs) <= cap for fd in walked.dependencies
        )

    def test_planted_dependencies_recovered(self):
        relation, planted = planted_fd_relation(60, 2, 3, seed=4)
        walked = _discover(relation, "dfd")
        found = {(fd.lhs, fd.rhs) for fd in walked.dependencies}
        for fd in planted:
            assert any(
                lhs & ~fd.lhs == 0 and rhs == fd.rhs for lhs, rhs in found
            )

    def test_twin_relation_walks_fewer_nodes(self):
        # The dep-free interior: levelwise must test it, the walk need not.
        relation = twin_relation(6, 120, seed=0)
        reference = _discover(relation, "levelwise")
        walked = _discover(relation, "dfd")
        assert _cover(walked) == _cover(reference)
        assert (
            walked.statistics.validity_tests
            < reference.statistics.validity_tests
        )


class TestDeterminism:
    def test_same_seed_same_walk(self):
        relation = random_relation(30, 5, 3, seed=2)
        first = _discover(relation, "dfd", dfd_seed=42)
        second = _discover(relation, "dfd", dfd_seed=42)
        assert _cover(first) == _cover(second)
        assert (
            first.statistics.validity_tests
            == second.statistics.validity_tests
        )

    def test_non_monotone_measures_rejected(self):
        with pytest.raises(ConfigurationError, match="monotone"):
            TaneConfig(strategy="dfd", epsilon=0.2, measure="mu_plus")
        with pytest.raises(ConfigurationError, match="monotone"):
            TaneConfig(strategy="dfd", epsilon=0.2, measure="rfi")


class _Interrupt(Exception):
    pass


def _interrupted_walk(relation, tmp_path, tests, **config):
    """Run a dfd walk into an interrupt at the first ``node_batch``
    close record with at least ``tests`` validity tests; assert it
    fired and left a checkpoint."""
    fired = []

    def interrupt(span):
        if (
            span.name == "node_batch"
            and span.end is not None
            and span.attributes["tests_total"] >= tests
        ):
            fired.append(span.attributes["tests_total"])
            raise _Interrupt

    with pytest.raises(_Interrupt):
        discover(relation, TaneConfig(
            strategy="dfd", checkpoint_dir=tmp_path,
            tracer=tracer_calling(interrupt), **config,
        ))
    assert fired, "the walk finished before the interrupt"
    assert (tmp_path / "checkpoint.json").exists()


class TestCheckpointResume:
    # The walk snapshots once per SNAPSHOT_TESTS (32) validity tests,
    # after the close record of the batch that completes them.  A
    # batch holds at most one test per attribute, so on these 8- and
    # 6-attribute relations an interrupt 8 or more tests past a
    # multiple of 32 always finds a snapshot on disk.
    @pytest.mark.parametrize("tests", [40, 72])
    def test_resumed_walk_is_bit_compatible(self, tmp_path, tests):
        relation = random_relation(80, 8, 3, seed=9)
        uninterrupted = _discover(relation, "dfd", dfd_seed=5)
        # At least one batch of the walk follows each interrupt point.
        assert uninterrupted.statistics.validity_tests >= tests + 8

        _interrupted_walk(relation, tmp_path, tests, dfd_seed=5)
        resumed = discover(relation, TaneConfig(
            strategy="dfd", dfd_seed=5, checkpoint_dir=tmp_path, resume=True,
        ))
        assert _cover(resumed) == _cover(uninterrupted)
        # The replay store makes the restored walk identical test for
        # test, so even the counter agrees with the uninterrupted run.
        assert (
            resumed.statistics.validity_tests
            == uninterrupted.statistics.validity_tests
        )

    def test_fingerprint_rejects_different_seed(self, tmp_path):
        relation = random_relation(40, 6, 3, seed=9)
        _interrupted_walk(relation, tmp_path, 40, dfd_seed=5)
        with pytest.raises(CheckpointError, match="seed"):
            discover(relation, TaneConfig(
                strategy="dfd", dfd_seed=6, checkpoint_dir=tmp_path,
                resume=True,
            ))

    def test_shared_rng_walk_checkpoint_refused(self, tmp_path):
        # A checkpoint of the earlier walk, which drew every rhs from
        # one shared RNG, has no walk-format field in its fingerprint;
        # replayed into the per-rhs walks it would diverge.
        relation = random_relation(40, 6, 3, seed=9)
        _interrupted_walk(relation, tmp_path, 40, dfd_seed=5)
        path = tmp_path / "checkpoint.json"
        document = json.loads(path.read_text())
        fingerprint = document["fingerprint"]
        assert fingerprint.pop("walk") == "per-rhs"
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="walk"):
            discover(relation, TaneConfig(
                strategy="dfd", dfd_seed=5, checkpoint_dir=tmp_path,
                resume=True,
            ))

    def test_level_checkpoint_refused_by_node_resume(self, tmp_path):
        relation = random_relation(40, 6, 3, seed=9)

        def interrupt_level(span):
            if level_opens(span, 2):
                raise _Interrupt

        with pytest.raises(_Interrupt):
            discover(relation, TaneConfig(
                checkpoint_dir=tmp_path, tracer=tracer_calling(interrupt_level),
            ))
        # One checkpoint format for every strategy: the fingerprint's
        # strategy identity refuses the cross-strategy resume.
        with pytest.raises(CheckpointError, match="strategy"):
            discover(relation, TaneConfig(
                strategy="dfd", checkpoint_dir=tmp_path, resume=True,
            ))

    def test_node_checkpoint_refused_by_level_resume(self, tmp_path):
        relation = random_relation(40, 6, 3, seed=9)
        _interrupted_walk(relation, tmp_path, 40, dfd_seed=5)
        with pytest.raises(CheckpointError, match="strategy"):
            discover(relation, TaneConfig(
                checkpoint_dir=tmp_path, resume=True,
            ))

    def test_complete_checkpoint_runs_no_step(self, tmp_path):
        relation = random_relation(40, 6, 3, seed=9)
        finished = discover(relation, TaneConfig(
            strategy="dfd", dfd_seed=5, checkpoint_dir=tmp_path,
        ))
        batches = []

        def record(span):
            if span.name == "node_batch":
                batches.append(span)

        resumed = discover(relation, TaneConfig(
            strategy="dfd", dfd_seed=5, checkpoint_dir=tmp_path, resume=True,
            tracer=tracer_calling(record),
        ))
        assert batches == []
        assert _cover(resumed) == _cover(finished)
        assert (
            resumed.statistics.validity_tests
            == finished.statistics.validity_tests
        )


ORDERS = Path(__file__).parent.parent.parent / "examples" / "data" / "orders.csv"


class TestLiveDependencyCount:
    def test_batches_count_settled_dependencies(self):
        # Each node_batch close record counts the minimal lhs sets the
        # walks have settled so far, not the tracker's final set.
        totals = []

        def record(span):
            if span.name == "node_batch" and span.end is not None:
                totals.append(span.attributes["dependencies_total"])

        result = discover(read_csv(ORDERS), TaneConfig(
            strategy="dfd", tracer=tracer_calling(record),
        ))
        assert len(result.dependencies) == 13
        assert totals and totals == sorted(totals)
        assert totals[-1] == 13
