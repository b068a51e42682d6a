"""Node-engine product chains: ancestor planning and column-keyed steps.

``PartitionManager._best_ancestor`` picks the start of each chain: the
resident subset with the most attributes, ties to the smallest mask.
Chain steps multiply by singleton partitions, which carry their column
in a memory store and lose it when they come back from a disk spill;
the cover and the search counters must not notice.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partition.vectorized as vectorized
from repro import _bitset
from repro.core.tane import TaneConfig, discover
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.uci import make_wisconsin_like
from repro.model.relation import Relation
from repro.partition.store import MemoryPartitionStore
from repro.partition.vectorized import CsrPartition, PartitionWorkspace
from repro.search.execution import SerialExecution
from repro.search.partitions import PartitionManager

ATTRIBUTES = 9
MASKS = st.integers(min_value=0, max_value=(1 << ATTRIBUTES) - 1)
SEARCH_COUNTERS = (
    "validity_tests",
    "partition_products",
    "error_computations",
    "g3_bound_rejections",
)


def scanned_ancestor(mask, residents):
    """The reference: scan every resident mask."""
    subsets = [
        resident
        for resident in residents
        if resident & ~mask == 0 and 2 <= _bitset.popcount(resident) < _bitset.popcount(mask)
    ]
    if not subsets:
        return mask & -mask
    return min(subsets, key=lambda resident: (-_bitset.popcount(resident), resident))


@pytest.fixture(scope="module")
def manager():
    relation = Relation.from_rows([[0] * ATTRIBUTES, [1] * ATTRIBUTES])
    return PartitionManager(
        relation, CsrPartition, MemoryPartitionStore(), PartitionWorkspace(2), SerialExecution()
    )


@given(
    residents=st.sets(MASKS.filter(lambda mask: _bitset.popcount(mask) >= 2), max_size=120),
    masks=st.lists(MASKS.filter(lambda mask: _bitset.popcount(mask) >= 2), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_best_ancestor_matches_the_scan(manager, residents, masks):
    manager._resident = set()
    manager._resident_by_size = {}
    for resident in residents:
        manager._register(resident)
    for mask in masks:
        assert manager._best_ancestor(mask) == scanned_ancestor(mask, residents)


def test_best_ancestor_looks_up_immediate_subsets(manager):
    # More resident pairs than the 3 immediate subsets of a 3-set: the
    # lookup path; the answer is still the smallest resident subset.
    manager._resident = set()
    manager._resident_by_size = {}
    for mask in range(1 << ATTRIBUTES):
        if _bitset.popcount(mask) == 2 and mask != 0b011:
            manager._register(mask)
    assert manager._best_ancestor(0b111) == 0b101
    assert manager._best_ancestor(0b1000_0011) == 0b1000_0001


def outcome(result):
    statistics = result.statistics
    cover = sorted((fd.lhs, fd.rhs, round(float(fd.error), 12)) for fd in result.dependencies)
    return cover, [getattr(statistics, name) for name in SEARCH_COUNTERS]


@pytest.fixture(scope="module")
def walk_relation():
    # 2,097 rows: past the dense kernel, so chain steps reach the
    # pooled kernel and its column-keyed path.
    relation = replicate_with_unique_suffix(make_wisconsin_like(0), 3)
    assert relation.num_rows > vectorized._DENSE_MAX_ROWS
    return relation


# Capped at three lhs attributes to keep the disk-store run short.
WALK = dict(strategy="dfd", measure="pdep", epsilon=0.05, max_lhs_size=3)


@pytest.fixture
def column_tasks(monkeypatch):
    """Tasks handed to the column-keyed path in this process."""
    taken = []
    column_products = vectorized._column_products

    def recording(tasks, results, num_rows, counts):
        taken.append(len(tasks))
        column_products(tasks, results, num_rows, counts)

    monkeypatch.setattr(vectorized, "_column_products", recording)
    return taken


def test_walk_agrees_across_stores(walk_relation, column_tasks):
    memory = outcome(discover(walk_relation, TaneConfig(**WALK)))
    in_memory = sum(column_tasks)
    assert in_memory > 0
    column_tasks.clear()
    spilled = outcome(
        discover(
            walk_relation,
            TaneConfig(
                store="disk",
                store_options=(("resident_budget_bytes", 1), ("min_spill_bytes", 0)),
                **WALK,
            ),
        )
    )
    # Singletons reloaded from their spill files carry no column.
    assert sum(column_tasks) < in_memory
    assert spilled == memory
