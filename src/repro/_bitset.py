"""Attribute sets represented as integer bitmasks.

The paper notes (Section 6) that attribute sets are implemented "as bit
vectors of O(1) words" so that set operations take constant time.  In
Python, arbitrary-precision integers give the same idiom with no word
limit: attribute ``i`` of the schema corresponds to bit ``1 << i``.

These helpers are the only place in the code base that manipulates raw
bit tricks; everything else goes through this module so the convention
stays in one spot.  All functions are pure.

Arrays of masks (a lattice level, FDEP's agree sets) hold machine words
where the schema allows it: :func:`mask_dtype` is the one place that
decides between ``int64`` and numpy ``object`` arrays of Python ints.
:func:`masks_to_words` and :func:`masks_from_words` convert either form
to and from little-endian 64-bit words, the form masks take in a file.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

__all__ = [
    "mask_dtype",
    "mask_words",
    "masks_to_words",
    "masks_from_words",
    "bit",
    "from_indices",
    "iter_bits",
    "iter_subsets_one_smaller",
    "popcount",
    "lowest_bit_index",
    "mask_of_size",
    "contains",
    "is_subset",
    "to_indices",
]


def mask_dtype(width: int) -> np.dtype:
    """The array dtype of masks over ``width`` attributes.

    Up to 63 attributes a mask is a non-negative ``int64`` (bit 63 would
    be the sign bit).  Wider schemas hold Python ints in ``object``
    arrays, which support the same bitwise, shift, comparison, sort and
    search operations, one Python call per element.
    """
    return np.dtype(np.int64) if width <= 63 else np.dtype(object)


_WORD = np.dtype("<u8")


def mask_words(masks: np.ndarray) -> int:
    """The 64-bit words per mask that :func:`masks_to_words` writes.

    One for an ``int64`` array; for an ``object`` array enough for its
    widest mask, and at least two, so that the words decode to an
    array of the same dtype (:func:`masks_from_words`).
    """
    if masks.dtype == np.int64:
        return 1
    widest = max((int(mask).bit_length() for mask in masks), default=0)
    return max(2, -(-widest // 64))


def masks_to_words(masks: np.ndarray) -> np.ndarray:
    """``masks`` as a ``(len(masks), words)`` array of little-endian
    64-bit words, lowest word first (:func:`mask_words` words per
    mask).  An ``int64`` array is one word per mask, byte for byte its
    own little-endian buffer."""
    words = mask_words(masks)
    if words == 1:
        return masks.astype("<i8").view(_WORD).reshape(-1, 1)
    out = np.empty((masks.size, words), dtype=_WORD)
    for word in range(words):
        out[:, word] = (masks >> 64 * word) & (1 << 64) - 1
    return out


def masks_from_words(words: np.ndarray) -> np.ndarray:
    """The masks of a ``(count, words)`` array of :func:`masks_to_words`:
    ``int64`` for one word per mask, else an ``object`` array."""
    if words.shape[1] == 1:
        return words[:, 0].view("<i8").astype(np.int64, copy=False)
    masks = np.zeros(words.shape[0], dtype=object)
    for word in range(words.shape[1]):
        masks |= words[:, word].astype(object) << 64 * word
    return masks


def bit(index: int) -> int:
    """Return the bitmask containing exactly attribute ``index``."""
    return 1 << index


def from_indices(indices: Iterable[int]) -> int:
    """Build a bitmask from an iterable of attribute indices."""
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def to_indices(mask: int) -> list[int]:
    """Return the sorted attribute indices present in ``mask``."""
    return list(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits in ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_subsets_one_smaller(mask: int) -> Iterator[tuple[int, int]]:
    """Yield ``(attribute_index, mask_without_it)`` for each bit of ``mask``.

    This enumerates exactly the immediate subsets ``X \\ {A}`` of the
    attribute set ``X`` that the levelwise algorithm consults.
    """
    remaining = mask
    while remaining:
        low = remaining & -remaining
        yield low.bit_length() - 1, mask ^ low
        remaining ^= low


def popcount(mask: int) -> int:
    """Return the number of attributes in the set ``mask``."""
    return mask.bit_count()


def lowest_bit_index(mask: int) -> int:
    """Return the index of the lowest set bit of a non-empty ``mask``."""
    if mask == 0:
        raise ValueError("empty attribute set has no lowest bit")
    return (mask & -mask).bit_length() - 1


def mask_of_size(n: int) -> int:
    """Return the full attribute set over a schema with ``n`` attributes."""
    return (1 << n) - 1


def contains(mask: int, index: int) -> bool:
    """Return True if attribute ``index`` is a member of ``mask``."""
    return bool(mask >> index & 1)


def is_subset(sub: int, sup: int) -> bool:
    """Return True if every attribute of ``sub`` is in ``sup``."""
    return sub & ~sup == 0
