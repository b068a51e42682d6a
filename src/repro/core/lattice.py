"""Levelwise lattice traversal: GENERATE-NEXT-LEVEL (Section 5).

Levels are collections of attribute-set bitmasks.  The next level
contains exactly the sets of size ``ℓ+1`` whose *every* subset of size
``ℓ`` is present in the (pruned) current level — the classic apriori
candidate generation, implemented with prefix blocks:

two sets ``X = P ∪ {a}`` and ``Y = P ∪ {b}`` (``a < b``) sharing the
prefix ``P`` of their ``ℓ-1`` smallest attributes join into the
candidate ``P ∪ {a, b}``, which is then checked for the remaining
subsets.

Over at most :data:`MAX_ARRAY_ATTRIBUTES` attributes a mask fits a
non-negative ``int64`` (Section 6 keeps attribute sets as machine
words), and the join and the subset check run as a fixed number of
numpy passes over the level's sorted mask array.  Wider schemas take
the Python-int path, which the array path must match exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["MAX_ARRAY_ATTRIBUTES", "prefix_blocks", "generate_next_level"]

MAX_ARRAY_ATTRIBUTES = 63
"""Widest schema whose attribute-set masks are held in ``int64``
arrays; bit 63 would be the sign bit."""


def prefix_blocks(level_masks: Iterable[int]) -> dict[int, list[int]]:
    """Group level sets by their prefix (the set minus its largest attribute).

    Returns a mapping ``prefix_mask -> sorted list of largest-attribute
    bits``.  Each block of ``k`` sets yields ``k*(k-1)/2`` join
    candidates.
    """
    blocks: dict[int, list[int]] = {}
    for mask in level_masks:
        if mask == 0:
            continue
        top = 1 << (mask.bit_length() - 1)
        blocks.setdefault(mask ^ top, []).append(top)
    for bits in blocks.values():
        bits.sort()
    return blocks


def generate_next_level(level_masks: Sequence[int]) -> list[tuple[int, int, int]]:
    """Compute the candidates of the next level from a (pruned) level.

    Returns a list of ``(candidate, factor_x, factor_y)`` triples where
    ``factor_x`` and ``factor_y`` are the two joined subsets — exactly
    the pair whose partition product yields the candidate's partition
    (Lemma 3: ``π_X · π_Y = π_{X∪Y}``).

    The candidate list is sorted, so level processing is deterministic.
    ``level_masks`` may be a list of ints or an ``int64`` array.
    """
    if isinstance(level_masks, np.ndarray):
        return _generate_from_array(level_masks)
    if len(level_masks) and max(level_masks) >> MAX_ARRAY_ATTRIBUTES == 0:
        return _generate_from_array(np.array(level_masks, dtype=np.int64))
    level_set = frozenset(level_masks)
    candidates: list[tuple[int, int, int]] = []
    for prefix, top_bits in prefix_blocks(level_masks).items():
        for i, low in enumerate(top_bits):
            for high in top_bits[i + 1:]:
                candidate = prefix | low | high
                if _all_subsets_present(candidate, prefix, level_set):
                    candidates.append((candidate, prefix | low, prefix | high))
    candidates.sort()
    return candidates


def _all_subsets_present(candidate: int, prefix: int, level_set: frozenset[int]) -> bool:
    """Check the one-smaller subsets not covered by the join itself.

    The two factors are in the level by construction; only subsets
    obtained by dropping a *prefix* attribute still need checking.
    """
    remaining = prefix
    while remaining:
        low = remaining & -remaining
        if candidate ^ low not in level_set:
            return False
        remaining ^= low
    return True


def _top_bits(masks: np.ndarray) -> np.ndarray:
    """The highest set bit of every mask (0 for 0)."""
    smeared = masks.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        smeared |= smeared >> shift
    return smeared ^ (smeared >> 1)


def _generate_from_array(masks: np.ndarray) -> list[tuple[int, int, int]]:
    """:func:`generate_next_level` over an ``int64`` mask array.

    The level is sorted by (prefix, mask), so every prefix block is a
    contiguous run whose masks ascend with their top bit; the join
    pairs each set with every later set of its run.  The subset check
    drops one prefix attribute per pass, lowest first, and looks the
    subset up in the sorted level by binary search.
    """
    level = np.unique(masks[masks != 0])
    count = level.size
    if count < 2:
        return []
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
    return list(
        zip(
            candidates[selected].tolist(),
            factor_x[selected].tolist(),
            factor_y[selected].tolist(),
        )
    )
