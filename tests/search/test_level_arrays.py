"""The level's ``int64`` masks against its ``object`` masks, step by step.

Up to 63 attributes a level holds its masks and ``C+`` as ``int64``
arrays; wider schemas hold Python ints in ``object`` arrays
(:func:`repro._bitset.mask_dtype`), through the same numpy passes.  The
lockstep harness below runs one tracker on a relation's ``int64``
levels and a second on the same levels with every mask shifted left by
``SHIFT`` bits, which takes the ``object`` dtype, and compares every
intermediate: ``C+``, the testable pairs and their rank tests, ``C+``
after the outcomes, survivors, keys, the next level's triples and the
order dependencies are recorded in.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.search.strategy as strategy_module
from repro import _bitset
from repro.baselines.bruteforce import discover_fds_bruteforce
from repro.core.lattice import generate_next_level, generate_next_level_arrays
from repro.core.tane import TaneConfig, discover
from repro.core.uccs import discover_uccs
from repro.model.relation import Relation
from repro.partition.store import MemoryPartitionStore
from repro.partition.vectorized import CsrPartition, PartitionWorkspace
from repro.search.execution import SerialExecution
from repro.search.measures import ValidityCriteria
from repro.search.partitions import PartitionManager
from repro.search.tracker import CandidateTracker, LevelArrays, PairOutcomes
from repro.testing.strategies import relations

SHIFT = 60
"""Bits the object side's masks are shifted by: a schema of four or
more attributes then reaches past bit 63."""


def shifted(masks) -> list[int]:
    return [mask << SHIFT for mask in masks]


def lockstep(relation: Relation, **options) -> None:
    """Run the int64 and the shifted object tracker over the same levels,
    comparing each step."""
    epsilon = options.get("epsilon", 0.0)
    max_lhs_size = options.get("max_lhs_size")
    num_rows = relation.num_rows
    full = relation.schema.full_mask()
    width = relation.num_attributes
    wide_width = max(width + SHIFT, 64)
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
    narrow = CandidateTracker(full, **options)
    wide = CandidateTracker(full << SHIFT, **options)
    max_level = width
    if max_lhs_size is not None:
        max_level = min(max_level, max_lhs_size + 1)

    level = partitions.bootstrap()
    empty_rank = partitions.error_counts([0]).tolist()
    previous = LevelArrays([0], empty_rank, [full], width=width)
    previous_wide = LevelArrays([0], empty_rank, [full << SHIFT], width=wide_width)
    number = 1
    subsets = None
    while level and number <= max_level:
        ranks = partitions.error_counts(level)
        current = LevelArrays(level, ranks, width=width, subsets=subsets)
        current_wide = LevelArrays(
            shifted(level), ranks, width=wide_width, subsets=subsets
        )
        assert current.masks.dtype == np.int64
        assert current_wide.masks.dtype == object

        # C+ (Lemma 4).
        cplus = narrow.compute_cplus(current, previous)
        cplus_wide = wide.compute_cplus(current_wide, previous_wide)
        assert cplus_wide.tolist() == shifted(cplus.tolist())

        # Testable pairs, in test order, and their Lemma 2 rank test.
        pairs = narrow.testable_groups(current, cplus)
        pairs_wide = wide.testable_groups(current_wide, cplus_wide)
        assert pairs_wide.whole.tolist() == shifted(pairs.whole.tolist())
        assert pairs_wide.lhs.tolist() == shifted(pairs.lhs.tolist())
        assert (pairs_wide.rhs - SHIFT).tolist() == pairs.rhs.tolist()
        assert pairs_wide.lower.tolist() == pairs.lower.tolist()
        outcomes = SerialExecution().validity_tests(
            pairs.groups(np.arange(pairs.rhs.size)), partitions.get, criteria, workspace
        )
        assert pairs.exact.tolist() == [o.exactly_valid for o in outcomes]

        # Updated C+ after the same outcomes.
        pair_outcomes = PairOutcomes(
            np.array([o.valid for o in outcomes], dtype=bool),
            np.array([o.exactly_valid for o in outcomes], dtype=bool),
            [o.error for o in outcomes],
        )
        narrow.apply_outcome(current, pairs, pair_outcomes, cplus)
        wide.apply_outcome(current_wide, pairs_wide, pair_outcomes, cplus_wide)
        assert cplus_wide.tolist() == shifted(cplus.tolist())

        # Survivors and keys (PRUNE).
        survivors = narrow.prune(current, cplus, number)
        survivors_wide = wide.prune(current_wide, cplus_wide, number)
        assert survivors_wide.dtype == object
        assert survivors_wide.tolist() == shifted(survivors.tolist())
        assert wide.keys == shifted(narrow.keys)

        # Dependencies, in recording order.
        assert [(fd.lhs, fd.rhs, fd.error) for fd in wide.dependencies] == [
            (fd.lhs << SHIFT, fd.rhs + SHIFT, fd.error) for fd in narrow.dependencies
        ]

        if number == max_level:
            break
        triples = generate_next_level_arrays(survivors, current.masks)
        triples_wide = generate_next_level_arrays(survivors_wide, current_wide.masks)
        assert triples_wide.triples() == [tuple(shifted(t)) for t in triples.triples()]
        assert np.array_equal(triples_wide.subsets, triples.subsets)
        subsets = triples.subsets
        partitions.reclaim(previous.masks.tolist())
        previous, previous_wide = current, current_wide
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
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_array_steps_match_python_int_steps(
    relation, epsilon, max_lhs_size, use_rule8, use_key_pruning
):
    lockstep(
        relation,
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
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_array_join_matches_python_int_join(width, size, data):
    # Arbitrary sublevels of one lattice level, so subsets go missing.
    level = [mask for mask in range(1 << width) if _bitset.popcount(mask) == size]
    chosen = sorted(data.draw(st.lists(st.sampled_from(level), unique=True)) if level else [])
    triples = generate_next_level(np.array(chosen, dtype=np.int64))
    assert generate_next_level(np.array(shifted(chosen), dtype=object)) == [
        tuple(shifted(triple)) for triple in triples
    ]
    # Apriori: exactly the sets one larger whose every subset was chosen.
    present = set(chosen)
    assert [candidate for candidate, _, _ in triples] == [
        mask
        for mask in range(1 << width)
        if _bitset.popcount(mask) == size + 1
        and all(subset in present for _, subset in _bitset.iter_subsets_one_smaller(mask))
    ]


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
    int64_run = discover(relation, config)
    with monkeypatch.context() as patch:
        # Every mask array of the run becomes an object array, the
        # level blocks' masks included.
        patch.setattr(_bitset, "mask_dtype", lambda width: np.dtype(object))
        object_run = discover(relation, config)
    # Same dependencies in the same order, same keys, same counters.
    assert summary(object_run) == summary(int64_run)


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
    dtypes = set()
    level_arrays = strategy_module.LevelArrays

    def recording(*args, **kwargs):
        level = level_arrays(*args, **kwargs)
        dtypes.add(level.masks.dtype)
        return level

    monkeypatch.setattr(strategy_module, "LevelArrays", recording)
    result = discover(relation, TaneConfig(max_lhs_size=2))
    assert dtypes == {np.dtype(object)}
    assert result.dependencies == discover_fds_bruteforce(relation, max_lhs_size=2)
    across = {(fd.lhs, fd.rhs) for fd in result.dependencies if fd.lhs >> 63 or fd.rhs >= 63}
    assert (_bitset.from_indices([0, 63]), 66) in across
    assert (_bitset.from_indices([9, 64]), 67) in across

    # The varying columns alone take int64 masks; mapped back to their
    # positions, with ∅ → c for every constant column, the covers agree.
    varying = [0, 9, 30, 61, 62, 63, 64, 65, 66, 67]
    narrow = discover(
        Relation.from_codes([columns[i] for i in varying], [f"v{i}" for i in varying]),
        TaneConfig(max_lhs_size=2),
    )
    assert dtypes == {np.dtype(object), np.dtype(np.int64)}
    expected = {
        (_bitset.from_indices(varying[i] for i in _bitset.iter_bits(fd.lhs)), varying[fd.rhs])
        for fd in narrow.dependencies
    }
    expected |= {(0, index) for index in range(68) if index not in varying}
    assert {(fd.lhs, fd.rhs) for fd in result.dependencies} == expected


PADDING = 61
"""Constant columns put in front of a random relation: its (at most
five) columns then sit at bits 61-65, across the int64 limit."""


def padded(relation: Relation) -> Relation:
    constant = np.zeros(relation.num_rows, dtype=np.int64)
    columns = [constant] * PADDING + [
        relation.column_codes(i) for i in range(relation.num_attributes)
    ]
    return Relation.from_codes(columns, [f"p{i}" for i in range(len(columns))])


def shifted_cover(result) -> dict[tuple[int, int], float]:
    return {(fd.lhs << PADDING, fd.rhs + PADDING): fd.error for fd in result}


def cover(result) -> dict[tuple[int, int], float]:
    return {(fd.lhs, fd.rhs): fd.error for fd in result}


@given(relation=relations(min_rows=2, max_columns=5))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_leading_constant_columns_shift_the_cover(relation):
    # A constant column C gives ∅ → C, and adding it to a lhs changes
    # no error, so it joins no other minimal dependency and no minimal
    # key.  Rule 8 prunes every {C} at level 1, so the levelwise walk
    # stays as small as the narrow one.
    wide = padded(relation)
    constants = {(0, index): 0.0 for index in range(PADDING)}
    for config in (
        TaneConfig(),
        TaneConfig(measure="g3", epsilon=0.1),
        # Over 61 constant columns DFD's walk is slow beyond |X| <= 1.
        TaneConfig(strategy="dfd", max_lhs_size=1),
    ):
        narrow_run = discover(relation, config)
        wide_run = discover(wide, config)
        assert cover(wide_run.dependencies) == shifted_cover(narrow_run.dependencies) | constants
        assert wide_run.keys == [key << PADDING for key in narrow_run.keys]
    # UCC discovery has no C+ pruning, so the constants stay in its
    # levels; two levels keep that small.
    narrow_uccs = discover_uccs(relation, max_size=2)
    wide_uccs = discover_uccs(wide, max_size=2)
    assert wide_uccs.uccs == [mask << PADDING for mask in narrow_uccs.uccs]
    assert wide_uccs.errors == narrow_uccs.errors
