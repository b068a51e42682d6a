"""The array form of a level against the Python-int form, step by step.

On schemas of at most 63 attributes the level scheduler holds a level
as aligned arrays (:class:`LevelArrays`); wider schemas keep the
Python-int masks and ``C+`` dicts, which are also the reference.  The
lockstep harness below runs both forms of the tracker on the *same*
levels and compares every intermediate: ``C+``, the testable pairs and
their rank tests, ``C+`` after the outcomes, survivors, keys, the
next level's triples and the order dependencies are recorded in.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.lattice as lattice
import repro.search.scheduler as scheduler
from repro import _bitset
from repro.baselines.bruteforce import discover_fds_bruteforce
from repro.core.lattice import generate_next_level
from repro.core.tane import TaneConfig, discover
from repro.model.relation import Relation
from repro.partition.store import MemoryPartitionStore
from repro.partition.vectorized import CsrPartition, PartitionWorkspace
from repro.search.execution import SerialExecution
from repro.search.measures import ValidityCriteria
from repro.search.partitions import PartitionManager
from repro.search.tracker import CandidateTracker, LevelArrays, PairOutcomes
from repro.testing.strategies import relations


def python_int_triples(survivors: list[int], monkeypatch) -> list:
    """GENERATE-NEXT-LEVEL through the Python-int join."""
    with monkeypatch.context() as patch:
        patch.setattr(lattice, "MAX_ARRAY_ATTRIBUTES", 0)
        return generate_next_level(survivors)


def lockstep(relation: Relation, monkeypatch, **options) -> None:
    """Run both tracker forms over the same levels, comparing each step."""
    epsilon = options.get("epsilon", 0.0)
    max_lhs_size = options.get("max_lhs_size")
    num_rows = relation.num_rows
    full = relation.schema.full_mask()
    workspace = PartitionWorkspace(num_rows)
    partitions = PartitionManager(
        relation, CsrPartition, MemoryPartitionStore(), workspace, SerialExecution()
    )
    criteria = ValidityCriteria(
        epsilon=epsilon,
        epsilon_count=int(epsilon * num_rows + 1e-9),
        measure="g3",
        use_g3_bounds=True,
        num_rows=num_rows,
    )
    reference = CandidateTracker(full, **options)
    arrays = CandidateTracker(full, **options)
    max_level = relation.num_attributes
    if max_lhs_size is not None:
        max_level = min(max_level, max_lhs_size + 1)

    level = partitions.bootstrap()
    cplus_prev = {0: full}
    previous = LevelArrays([0], [partitions.error_count(0)], [full])
    number = 1
    while level and number <= max_level:
        current = LevelArrays(level, [partitions.error_count(m) for m in level])

        # C+ (Lemma 4).
        cplus = reference.compute_cplus(level, cplus_prev)
        cplus_array = arrays.compute_cplus(current, previous)
        assert dict(zip(level, cplus_array.tolist())) == cplus

        # Testable pairs, in test order, and their Lemma 2 rank test.
        groups = reference.testable_groups(level, cplus)
        pairs = arrays.testable_groups(current, cplus_array)
        flat = [(whole, rhs, lhs) for whole, tests in groups for rhs, lhs in tests]
        assert list(zip(pairs.whole.tolist(), pairs.rhs.tolist(), pairs.lhs.tolist())) == flat
        outcomes = SerialExecution().validity_tests(
            groups, partitions.get, criteria, workspace
        )
        assert pairs.exact.tolist() == [o.exactly_valid for o in outcomes]

        # Updated C+ after the same outcomes.
        position = 0
        for whole, tests in groups:
            for rhs, lhs in tests:
                reference.apply_outcome(whole, rhs, lhs, outcomes[position], cplus)
                position += 1
        arrays.apply_outcome(
            current,
            pairs.rhs,
            pairs.lhs,
            PairOutcomes(
                np.array([o.valid for o in outcomes], dtype=bool),
                np.array([o.exactly_valid for o in outcomes], dtype=bool),
                [o.error for o in outcomes],
            ),
            cplus_array,
        )
        assert dict(zip(level, cplus_array.tolist())) == cplus

        # Survivors and keys (PRUNE).
        survivors = reference.prune(level, cplus, number, partitions.is_superkey)
        survivors_array = arrays.prune(current, cplus_array, number, None)
        assert survivors_array.tolist() == survivors
        assert arrays.keys == reference.keys

        # Dependencies, in recording order.
        assert [(fd.lhs, fd.rhs, fd.error) for fd in arrays.dependencies] == [
            (fd.lhs, fd.rhs, fd.error) for fd in reference.dependencies
        ]

        if number == max_level:
            break
        triples = python_int_triples(survivors, monkeypatch)
        assert generate_next_level(survivors_array) == triples
        assert generate_next_level(survivors) == triples
        partitions.reclaim(list(cplus_prev))
        cplus_prev, previous = cplus, current
        level = partitions.materialize(triples)
        number += 1


# Few rows over wider domains make keys, so pruned levels (and the
# subset check of the join) are common.
@given(
    relation=relations(min_rows=0, max_rows=12, max_columns=6, max_domain=4),
    epsilon=st.sampled_from([0.0, 0.1]),
    max_lhs_size=st.sampled_from([None, 1, 2]),
    use_rule8=st.booleans(),
    use_key_pruning=st.booleans(),
)
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_array_steps_match_python_int_steps(
    relation, epsilon, max_lhs_size, use_rule8, use_key_pruning, monkeypatch
):
    lockstep(
        relation,
        monkeypatch,
        epsilon=epsilon,
        max_lhs_size=max_lhs_size,
        use_rule8=use_rule8,
        use_key_pruning=use_key_pruning,
    )


@given(
    width=st.integers(min_value=1, max_value=8),
    size=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_array_join_matches_python_int_join(width, size, data, monkeypatch):
    # Arbitrary sublevels of one lattice level, so subsets go missing.
    level = [mask for mask in range(1 << width) if _bitset.popcount(mask) == size]
    chosen = data.draw(st.lists(st.sampled_from(level), unique=True)) if level else []
    assert generate_next_level(np.array(sorted(chosen), dtype=np.int64)) == (
        python_int_triples(chosen, monkeypatch)
    )


def summary(result):
    s = result.statistics
    return (
        [(fd.lhs, fd.rhs, fd.error) for fd in result.dependencies],
        list(result.keys),
        s.level_sizes,
        s.pruned_level_sizes,
        s.validity_tests,
        s.partition_products,
        s.error_computations,
        s.g3_bound_rejections,
        s.keys_found,
    )


@given(
    relation=relations(min_rows=0, max_rows=24, max_columns=6, max_domain=3),
    epsilon=st.sampled_from([0.0, 0.1]),
    max_lhs_size=st.sampled_from([None, 1, 2]),
    use_rule8=st.booleans(),
    use_key_pruning=st.booleans(),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_array_runs_match_python_int_runs(
    relation, epsilon, max_lhs_size, use_rule8, use_key_pruning, monkeypatch
):
    config = TaneConfig(
        epsilon=epsilon,
        max_lhs_size=max_lhs_size,
        use_rule8=use_rule8,
        use_key_pruning=use_key_pruning,
    )
    arrays = discover(relation, config)
    with monkeypatch.context() as patch:
        patch.setattr(scheduler, "MAX_ARRAY_ATTRIBUTES", 0)
        reference = discover(relation, config)
    # Same dependencies in the same order, same keys, same counters.
    assert summary(arrays) == summary(reference)


def test_wide_schema_takes_the_python_int_path(monkeypatch):
    # 68 attributes, so masks overflow int64.  Constant columns keep the
    # bruteforce oracle cheap; the varying ones straddle bit 63, and
    # two derived columns plant dependencies across it.
    rng = np.random.default_rng(3)
    columns = [np.zeros(12, dtype=np.int64) for _ in range(68)]
    for index in (0, 9, 30, 61, 62, 63, 64, 65):
        columns[index] = rng.integers(0, 3, size=12)
    columns[66] = (columns[0] + columns[63]) % 3
    columns[67] = columns[64] * 3 + columns[9]
    relation = Relation.from_codes(columns, [f"c{i}" for i in range(68)])
    arrays_built = []
    monkeypatch.setattr(
        scheduler, "LevelArrays", lambda *a: arrays_built.append(a) or LevelArrays(*a)
    )
    result = discover(relation, TaneConfig(max_lhs_size=2))
    assert arrays_built == []
    assert result.dependencies == discover_fds_bruteforce(relation, max_lhs_size=2)
    across = {(fd.lhs, fd.rhs) for fd in result.dependencies if fd.lhs >> 63 or fd.rhs >= 63}
    assert (_bitset.from_indices([0, 63]), 66) in across
    assert (_bitset.from_indices([9, 64]), 67) in across
