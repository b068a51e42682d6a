"""Levelwise lattice traversal: GENERATE-NEXT-LEVEL (Section 5).

Levels are collections of attribute-set bitmasks.  The next level
contains exactly the sets of size ``ℓ+1`` whose *every* subset of size
``ℓ`` is present in the (pruned) current level — the classic apriori
candidate generation, implemented with prefix blocks:

two sets ``X = P ∪ {a}`` and ``Y = P ∪ {b}`` (``a < b``) sharing the
prefix ``P`` of their ``ℓ-1`` smallest attributes join into the
candidate ``P ∪ {a, b}``, which is then checked for the remaining
subsets.

The join and the subset check run as a fixed number of numpy passes
over the level's sorted mask array.  Its dtype is
:func:`repro._bitset.mask_dtype` of the schema: machine words
(``int64``, Section 6) up to 63 attributes, Python ints in an
``object`` array above; the passes are the same for both.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro import _bitset

__all__ = [
    "LevelCandidates",
    "generate_next_level",
    "generate_next_level_arrays",
]


class LevelCandidates(NamedTuple):
    """The next level's product triples as three aligned mask arrays
    (the level's dtype), candidates ascending."""

    candidates: np.ndarray
    factor_x: np.ndarray
    factor_y: np.ndarray

    def triples(self) -> list[tuple[int, int, int]]:
        """The same triples as a list of ``(candidate, x, y)`` tuples."""
        return list(
            zip(self.candidates.tolist(), self.factor_x.tolist(), self.factor_y.tolist())
        )


def generate_next_level(level_masks: Sequence[int]) -> list[tuple[int, int, int]]:
    """Compute the candidates of the next level from a (pruned) level.

    Returns a list of ``(candidate, factor_x, factor_y)`` triples where
    ``factor_x`` and ``factor_y`` are the two joined subsets — exactly
    the pair whose partition product yields the candidate's partition
    (Lemma 3: ``π_X · π_Y = π_{X∪Y}``).

    The candidate list is sorted, so level processing is deterministic.
    ``level_masks`` may be a list of ints or a mask array; this is
    :func:`generate_next_level_arrays` with the triples as tuples.
    """
    if not isinstance(level_masks, np.ndarray):
        widest = max(level_masks, default=0).bit_length()
        level_masks = np.array(level_masks, dtype=_bitset.mask_dtype(widest))
    return generate_next_level_arrays(level_masks).triples()


def _top_bits(masks: np.ndarray) -> np.ndarray:
    """The highest set bit of every mask (0 for 0)."""
    # Smear each mask's top bit into every lower bit, doubling the
    # shift until it spans the widest mask: 64 bits for int64 masks.
    width = 64 if masks.dtype == np.int64 else int(masks.max()).bit_length()
    smeared = masks.copy()
    shift = 1
    while shift < width:
        smeared |= smeared >> shift
        shift *= 2
    return smeared ^ (smeared >> 1)


def generate_next_level_arrays(masks: np.ndarray) -> LevelCandidates:
    """:func:`generate_next_level` over a mask array, with the triples
    returned as arrays of its dtype.

    The level is sorted by (prefix, mask), so every prefix block is a
    contiguous run whose masks ascend with their top bit; the join
    pairs each set with every later set of its run.  The subset check
    drops one prefix attribute per pass, lowest first, and looks the
    subset up in the sorted level by binary search.
    """
    # Sort and drop repeats by hand: np.unique imports numpy.ma on its
    # first call, which would cost the first run in a process ~10 ms.
    level = masks[masks != 0]
    level.sort()
    if level.size > 1:
        distinct = np.empty(level.size, dtype=bool)
        distinct[0] = True
        np.not_equal(level[1:], level[:-1], out=distinct[1:])
        level = level[distinct]
    count = level.size
    if count < 2:
        return LevelCandidates(*(np.zeros(0, dtype=masks.dtype) for _ in range(3)))
    prefixes = level ^ _top_bits(level)
    order = np.lexsort((level, prefixes))
    members = level[order]
    prefixes = prefixes[order]
    opens = np.empty(count, dtype=bool)
    opens[0] = True
    np.not_equal(prefixes[1:], prefixes[:-1], out=opens[1:])
    starts = np.flatnonzero(opens)
    ends = np.append(starts[1:], count)
    partners = ends[np.cumsum(opens) - 1] - np.arange(count) - 1
    left = np.repeat(np.arange(count), partners)
    first_pair = np.cumsum(partners) - partners
    right = left + 1 + np.arange(left.size) - np.repeat(first_pair, partners)
    factor_x = members[left]
    factor_y = members[right]
    candidates = factor_x | factor_y
    remaining = prefixes[left]
    keep = np.ones(candidates.size, dtype=bool)
    while True:
        live = np.flatnonzero(remaining)
        if live.size == 0:
            break
        low = remaining[live] & -remaining[live]
        subsets = candidates[live] ^ low
        found = np.searchsorted(level, subsets)
        np.minimum(found, count - 1, out=found)
        keep[live] &= level[found] == subsets
        remaining[live] ^= low
    selected = np.flatnonzero(keep)
    selected = selected[np.argsort(candidates[selected])]
    return LevelCandidates(candidates[selected], factor_x[selected], factor_y[selected])
