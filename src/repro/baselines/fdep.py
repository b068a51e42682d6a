"""FDEP (Savnik & Flach 1993): bottom-up induction of dependencies.

The paper's experimental comparison (Section 7) runs TANE against the
publicly available FDEP program.  FDEP works in two phases:

1. **Negative cover** — compare every pair of rows; the *agree set*
   (attributes on which the pair agrees) witnesses that
   ``agree_set -> A`` is invalid for every attribute ``A`` outside it.
   Only the maximal invalid left-hand sides are kept.  This phase is
   ``Ω(|r|^2)`` in the number of rows — the source of FDEP's quadratic
   scaling in Figure 4 of the paper.
2. **Specialization** — starting from the most general dependency
   ``∅ -> A``, repeatedly specialize left-hand sides violated by a
   member of the negative cover until only valid (and minimal)
   dependencies remain.

Pairwise agree-set computation is vectorized with numpy: each row's
equality pattern against the later rows is weighted by the attribute
bits, held in :func:`~repro._bitset.mask_dtype` of the schema
(``int64`` up to 63 attributes, Python ints above).
"""

from __future__ import annotations

import numpy as np

from repro import _bitset
from repro.model.fd import FDSet, FunctionalDependency
from repro.model.relation import Relation

__all__ = ["agree_sets", "negative_cover", "discover_fds_fdep"]


def agree_sets(relation: Relation) -> set[int]:
    """Agree sets (as bitmasks) over all pairs of *distinct* rows.

    Duplicate rows agree everywhere and contribute no violation, so
    rows are deduplicated first.
    """
    if relation.num_rows < 2:
        return set()
    matrix = np.stack([relation.column_codes(i) for i in range(relation.num_attributes)], axis=1)
    matrix = np.unique(matrix, axis=0)
    num_rows, num_attributes = matrix.shape
    dtype = _bitset.mask_dtype(num_attributes)
    powers = np.left_shift(np.ones(1, dtype=dtype), np.arange(num_attributes).astype(dtype))
    result: set[int] = set()
    for row in range(num_rows - 1):
        equal = matrix[row + 1:] == matrix[row]
        masks = equal @ powers
        result.update(int(mask) for mask in np.unique(masks))
    full = (1 << num_attributes) - 1
    result.discard(full)  # deduplicated rows cannot fully agree, but be safe
    return result


def _maximal_masks(masks: list[int]) -> list[int]:
    """Keep only the maximal sets (no mask contained in another)."""
    # Sorting by descending popcount lets each mask only be tested
    # against already-accepted (larger or equal) masks.
    ordered = sorted(set(masks), key=_bitset.popcount, reverse=True)
    maximal: list[int] = []
    for mask in ordered:
        if not any(_bitset.is_subset(mask, kept) for kept in maximal):
            maximal.append(mask)
    return maximal


def negative_cover(relation: Relation) -> dict[int, list[int]]:
    """Maximal invalid left-hand sides per right-hand side attribute.

    ``negative_cover(r)[A]`` is the list of maximal sets ``Y`` such
    that ``Y -> A`` does *not* hold in ``r``.
    """
    observed = agree_sets(relation)
    cover: dict[int, list[int]] = {}
    for rhs_index in range(relation.num_attributes):
        rhs_bit = _bitset.bit(rhs_index)
        invalid = [mask for mask in observed if not mask & rhs_bit]
        cover[rhs_index] = _maximal_masks(invalid)
    return cover


def discover_fds_fdep(relation: Relation, max_lhs_size: int | None = None) -> FDSet:
    """Find all minimal non-trivial functional dependencies with FDEP.

    ``max_lhs_size`` reproduces the ``|X|`` left-hand-side limit used in
    Table 3 of the paper: dependencies needing a larger lhs are
    dropped.
    """
    cover = negative_cover(relation)
    full = relation.schema.full_mask()
    result = FDSet()
    for rhs_index in range(relation.num_attributes):
        rhs_bit = _bitset.bit(rhs_index)
        general: list[int] = [0]
        # Specializing against larger invalid sets first prunes faster.
        for invalid in sorted(cover[rhs_index], key=_bitset.popcount, reverse=True):
            survivors: list[int] = []
            violated: list[int] = []
            for lhs in general:
                if _bitset.is_subset(lhs, invalid):
                    violated.append(lhs)
                else:
                    survivors.append(lhs)
            for lhs in violated:
                for bit_index in _bitset.iter_bits(full & ~(invalid | rhs_bit)):
                    candidate = lhs | _bitset.bit(bit_index)
                    if max_lhs_size is not None and _bitset.popcount(candidate) > max_lhs_size:
                        continue
                    if not any(_bitset.is_subset(existing, candidate) for existing in survivors):
                        survivors.append(candidate)
            general = survivors
        for lhs in _minimal_masks(general):
            result.add(FunctionalDependency(lhs, rhs_index, 0.0))
    return result


def _minimal_masks(masks: list[int]) -> list[int]:
    """Keep only the minimal sets (final anti-chain sweep)."""
    ordered = sorted(set(masks), key=_bitset.popcount)
    minimal: list[int] = []
    for mask in ordered:
        if not any(_bitset.is_subset(kept, mask) for kept in minimal):
            minimal.append(mask)
    return minimal
