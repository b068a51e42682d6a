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

The join also returns where every subset ``X∖{A}`` of every candidate
sits in the level (:attr:`LevelCandidates.subsets`): the two factors'
positions come from the join itself and the others from the subset
check's binary searches, so these are the level's only subset lookups.
The ``C+`` intersection, the rank tests and the level-block products of
the next level index that matrix instead of searching again.
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
    (the level's dtype), candidates ascending, and the positions of
    every candidate's subsets in the level they were generated from."""

    candidates: np.ndarray
    factor_x: np.ndarray
    factor_y: np.ndarray
    subsets: np.ndarray
    """``(count, ℓ+1)`` ``intp`` matrix for candidates of ``ℓ+1``
    attributes: column ``j`` is the row of ``X∖{A}`` in the level, ``A``
    the ``j``-th lowest attribute of ``X``.  The last two columns are the
    factors' rows, ``factor_y`` (``X`` without its second-highest
    attribute) then ``factor_x`` (without its highest).  Masks of several
    sizes give a shorter candidate's two factor rows right after its
    own columns and ``-1`` after them."""

    @property
    def factor_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``factor_x`` and ``factor_y`` in the level, for a
        level of one mask size."""
        return self.subsets[:, -1], self.subsets[:, -2]

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


def generate_next_level_arrays(
    masks: np.ndarray, level: np.ndarray | None = None
) -> LevelCandidates:
    """:func:`generate_next_level` over a mask array, with the triples
    returned as arrays of its dtype and each candidate's subset
    positions (:attr:`LevelCandidates.subsets`).

    The level is sorted by (prefix, mask), so every prefix block is a
    contiguous run whose masks ascend with their top bit; the join
    pairs each set with every later set of its run.  The subset check
    drops one prefix attribute per pass, lowest first, and looks the
    subset up in the sorted level by binary search.

    ``level`` is the sorted level ``masks`` were pruned from, when they
    were: the subset positions are then rows of ``level``, else of the
    sorted distinct ``masks``.  Every mask must be in ``level``.
    """
    # Sort and drop repeats by hand: np.unique imports numpy.ma on its
    # first call, which would cost the first run in a process ~10 ms.
    members = masks[masks != 0]
    members.sort()
    if members.size > 1:
        distinct = np.empty(members.size, dtype=bool)
        distinct[0] = True
        np.not_equal(members[1:], members[:-1], out=distinct[1:])
        members = members[distinct]
    count = members.size
    if count < 2:
        empty = np.zeros(0, dtype=masks.dtype)
        return LevelCandidates(empty, empty, empty, np.zeros((0, 2), dtype=np.intp))
    prefixes = members ^ _top_bits(members)
    order = np.lexsort((members, prefixes))
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
    remaining = prefixes[left]
    # Positions in ``members``: the factors' from the join, then one
    # column per pass of the subset check.
    x_rows = order[left]
    y_rows = order[right]
    factor_x = members[x_rows]
    factor_y = members[y_rows]
    candidates = factor_x | factor_y
    keep = np.ones(candidates.size, dtype=bool)
    columns = []
    while True:
        live = np.flatnonzero(remaining)
        if live.size == 0:
            break
        low = remaining[live] & -remaining[live]
        subsets = candidates[live] ^ low
        found = np.searchsorted(members, subsets)
        np.minimum(found, count - 1, out=found)
        keep[live] &= members[found] == subsets
        remaining[live] ^= low
        if live.size < candidates.size:
            # Masks of several sizes: shorter candidates sit this out.
            column = np.full(candidates.size, -1, dtype=np.intp)
            column[live] = found
            found = column
        columns.append(found)
    selected = np.flatnonzero(keep)
    selected = selected[np.argsort(candidates[selected])]
    rows = np.full((selected.size, len(columns) + 2), -1, dtype=np.intp)
    for index, column in enumerate(columns):
        rows[:, index] = column[selected]
    # The factors follow each candidate's own passes, which are the
    # last two columns unless the masks have several sizes.
    tail = np.count_nonzero(rows >= 0, axis=1)
    every = np.arange(selected.size)
    rows[every, tail] = y_rows[selected]
    rows[every, tail + 1] = x_rows[selected]
    if level is not None:
        # From positions in the survivors to rows of the full level; -1
        # (no subset) stays -1.
        within = np.searchsorted(level, members)
        np.minimum(within, max(level.size - 1, 0), out=within)
        if level.size == 0 or not np.array_equal(level[within], members):
            raise ValueError("every mask must be in the level it was pruned from")
        rows = np.append(within, -1)[rows]
    return LevelCandidates(
        candidates[selected], factor_x[selected], factor_y[selected], rows
    )
