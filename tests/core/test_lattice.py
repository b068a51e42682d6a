"""Tests for GENERATE-NEXT-LEVEL (prefix-block apriori generation)."""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro import _bitset
from repro.core.lattice import _top_bits, generate_next_level

ORDERS = Path(__file__).parent.parent.parent / "examples" / "data" / "orders.csv"


def masks_of(*index_tuples):
    return [_bitset.from_indices(t) for t in index_tuples]


def prefixes(masks, shift=0):
    """Join prefix (the set minus its largest attribute) of every mask,
    with the masks shifted left by ``shift`` bits first; a shift past
    bit 63 holds them in an ``object`` array."""
    widest = max(masks, default=0).bit_length() + shift
    array = np.array([mask << shift for mask in masks], dtype=_bitset.mask_dtype(widest))
    return [prefix >> shift for prefix in (array ^ _top_bits(array)).tolist()]


class TestPrefixBlocks:
    """Sets sharing a prefix form one block of the join."""

    def test_singletons_share_empty_prefix(self):
        level = masks_of((0,), (1,), (2,))
        assert prefixes(level) == prefixes(level, shift=61) == [0, 0, 0]

    def test_pairs(self):
        level = masks_of((0, 1), (0, 2), (1, 2))
        assert prefixes(level) == prefixes(level, shift=61) == [1, 1, 2]
        assert prefixes(masks_of((0, 40), (3, 70))) == [1, 8]

    def test_zero_ignored(self):
        assert prefixes([0]) == prefixes([0], shift=70) == [0]
        assert generate_next_level([0]) == []
        assert generate_next_level(np.array([0], dtype=object)) == []


class TestGenerateNextLevel:
    def test_full_level2_from_singletons(self):
        level1 = masks_of((0,), (1,), (2,))
        result = generate_next_level(level1)
        candidates = [c for c, _, _ in result]
        assert candidates == masks_of((0, 1), (0, 2), (1, 2))

    def test_factors_are_joined_subsets(self):
        level1 = masks_of((0,), (1,))
        [(candidate, x, y)] = generate_next_level(level1)
        assert candidate == 0b11
        assert {x, y} == {0b01, 0b10}
        assert x | y == candidate

    def test_missing_subset_blocks_candidate(self):
        # {0,1}, {0,2} present but {1,2} absent: {0,1,2} not generated.
        level2 = masks_of((0, 1), (0, 2))
        assert generate_next_level(level2) == []

    def test_three_pairs_give_triple(self):
        level2 = masks_of((0, 1), (0, 2), (1, 2))
        [(candidate, x, y)] = generate_next_level(level2)
        assert candidate == 0b111
        # the join uses the two sets sharing the 2-attribute prefix {0}/{1}
        assert _bitset.is_subset(x, candidate) and _bitset.is_subset(y, candidate)

    def test_empty_level(self):
        assert generate_next_level([]) == []

    def test_deterministic_order(self):
        level = masks_of((2,), (0,), (1,))
        first = generate_next_level(level)
        second = generate_next_level(list(reversed(level)))
        assert first == second

    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_matches_specification(self, num_attributes, data):
        """L_{l+1} = sets whose every l-subset is in L_l (paper spec)."""
        level_size = data.draw(st.integers(min_value=1, max_value=min(3, num_attributes - 1)))
        universe = list(combinations(range(num_attributes), level_size))
        chosen = data.draw(
            st.lists(st.sampled_from(universe), min_size=0, max_size=len(universe), unique=True)
        )
        level = sorted(_bitset.from_indices(c) for c in chosen)
        level_set = set(level)
        expected = []
        for combo in combinations(range(num_attributes), level_size + 1):
            mask = _bitset.from_indices(combo)
            subsets_present = all(
                (mask ^ _bitset.bit(i)) in level_set for i in combo
            )
            if subsets_present:
                expected.append(mask)
        result = generate_next_level(level)
        assert [c for c, _, _ in result] == sorted(expected)
        for candidate, x, y in result:
            assert x in level_set and y in level_set and x | y == candidate


class TestArrayDedupe:
    def test_unsorted_repeated_array_matches_sorted_list(self):
        level = masks_of((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
        shuffled = np.array([0] + level[::-1] + level[:3], dtype=np.int64)
        assert generate_next_level(shuffled) == generate_next_level(level)
        assert [c for c, _, _ in generate_next_level(shuffled)] == masks_of(
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)
        )

    def test_levelwise_run_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use (~10 ms on the first
        # run of a process); level generation must not pay for it.
        script = (
            "import sys\n"
            "from repro.core.tane import TaneConfig, discover\n"
            "from repro.datasets.csvio import read_csv\n"
            f"discover(read_csv({str(ORDERS)!r}), TaneConfig())\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        source = str(Path(repro.__file__).parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
