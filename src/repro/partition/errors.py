"""The contingency table every error measure reads, and the integer
counts of Kivinen & Mannila's (1995) g1, g2 and g3 over it.

The paper adopts ``g3`` — the minimum fraction of rows to delete for
the dependency to hold — as its approximateness measure; ``g1`` (the
fraction of violating row *pairs*) and ``g2`` (the fraction of rows
involved in some violation) are provided for completeness, all computed
from the partitions ``π_X`` and ``π_{X∪{A}}``.

Every measure formula of :mod:`repro.search.measures` reads one integer
:class:`Contingency` table of that pair, which :func:`contingency`
builds from three front ends: two CSR partitions (the lhs labels
scattered to a probe and read at the first row of every refined
class), two label rows of a level block (:class:`LabelRow`: the labels
are already laid out per row, so no CSR is built), or the pure
engine's ``classes()``.  ``g3``, ``g2`` and ``g1`` are integer counts
of the table (:func:`g3_count`, :func:`g2_count`, :func:`g1_count`);
the measure formulas divide them by ``|r|`` or ``|r|²``, and the score
measures derive their floats from the table term by term.  The engines'
own :meth:`~repro.partition.base.PartitionBase.g3_error_count` and the
rank bound :meth:`~repro.partition.base.PartitionBase.g3_bound_counts`
serve callers that hold two partitions and no table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.partition.base import PartitionBase
from repro.partition.pure import PurePartition

__all__ = ["Contingency", "LabelRow", "contingency", "g1_count", "g2_count", "g3_count"]


class LabelRow(NamedTuple):
    """One partition as a row of a level block: the class label of
    every row of the relation (-1 where the partition strips it), the
    stripped class count and ``e(π)``."""

    labels: np.ndarray
    num_classes: int
    error_count: int


class Contingency(NamedTuple):
    """The lhs x rhs contingency table of one test, as integer arrays.

    ``sizes[j]`` is the size of stripped lhs class ``j``; ``children``
    are the sizes of the stripped classes of ``π_{X∪{A}}`` and
    ``parents`` the lhs class each lies in.  The other rows of an lhs
    class each carry a distinct rhs value, and rows outside every
    stripped lhs class are lhs-singletons, so this is all any measure
    needs.
    """

    sizes: np.ndarray
    children: np.ndarray
    parents: np.ndarray

    def per_class(self, values: np.ndarray) -> np.ndarray:
        """``Σ values`` over each lhs class's children, as floats: exact
        for integer values below ``2**53`` (~94 million rows)."""
        return np.bincount(self.parents, weights=values, minlength=self.sizes.size)

    def largest(self) -> np.ndarray:
        """Each lhs class's largest child, at least 1 (a class with no
        stripped child holds only singletons)."""
        largest = np.ones(self.sizes.size, dtype=np.int64)
        np.maximum.at(largest, self.parents, self.children)
        return largest


def contingency(pi_lhs, pi_whole, workspace=None) -> Contingency:
    """The contingency table of ``pi_lhs`` refined by ``pi_whole``.

    A whole class (rows agreeing on X) lies inside one lhs class (rows
    agreeing on X minus A), so any of its rows names the parent.  A
    label row pairs with a label row; the CSR probe borrows ``workspace``.
    """
    if isinstance(pi_lhs, LabelRow):
        return _from_label_rows(pi_lhs, pi_whole)
    if isinstance(pi_lhs, PurePartition) or isinstance(pi_whole, PurePartition):
        return _from_classes(pi_lhs, pi_whole)
    sizes = pi_lhs.class_sizes.astype(np.int64)
    children = pi_whole.class_sizes.astype(np.int64)
    probe = (
        workspace.probe
        if workspace is not None
        else np.full(pi_lhs.num_rows, -1, dtype=pi_lhs.indices.dtype)
    )
    # A raise between scatter and reset must not leave a shared probe
    # dirty.  Labels are not cached on the partition: the walk keeps
    # many lhs partitions resident, and a cache would double each one.
    try:
        probe[pi_lhs.indices] = np.repeat(np.arange(sizes.size, dtype=probe.dtype), sizes)
        parents = probe[pi_whole.indices[pi_whole.offsets[:-1]]].astype(np.int64)
    finally:
        probe[pi_lhs.indices] = -1
    outside = parents < 0
    if outside.any():
        # Only when pi_whole does not refine pi_lhs: a class whose first
        # row no lhs class holds is left out, as the paper's probe does.
        children, parents = children[~outside], parents[~outside]
    return Contingency(sizes, children, parents)


def _from_label_rows(lhs: LabelRow, whole: LabelRow) -> Contingency:
    """Two class histograms and one scatter of the lhs labels."""
    # Shifted by one, stripped rows count in bin 0, which is dropped.
    sizes = np.bincount(lhs.labels + 1, minlength=lhs.num_classes + 1)[1:]
    children = np.bincount(whole.labels + 1, minlength=whole.num_classes + 1)[1:]
    # The rows the whole partition strips write to the extra last slot.
    parents = np.empty(whole.num_classes + 1, dtype=np.int64)
    parents[whole.labels] = lhs.labels
    return Contingency(sizes, children, parents[:-1])


def _from_classes(pi_lhs: PartitionBase, pi_whole: PartitionBase) -> Contingency:
    """The same arrays from the pure engine's ``classes()``."""
    parent_of: dict[int, int] = {}
    sizes: list[int] = []
    for index, cls in enumerate(pi_lhs.classes()):
        sizes.append(len(cls))
        for row in cls:
            parent_of[row] = index
    whole = [(len(cls), parent_of[cls[0]]) for cls in pi_whole.classes()]
    children = np.array([k for k, _ in whole], dtype=np.int64)
    parents = np.array([j for _, j in whole], dtype=np.int64)
    return Contingency(np.array(sizes, dtype=np.int64), children, parents)


def g3_count(table: Contingency) -> int:
    """Rows to remove for ``X → A`` to hold: ``Σ (s − max(1, largest
    child))`` over the lhs classes."""
    return int(table.sizes.sum() - table.largest().sum())


def g2_count(table: Contingency) -> int:
    """Rows in some violation: those of every lhs class whose largest
    child is smaller than the class."""
    return int(table.sizes[table.largest() < table.sizes].sum())


def g1_count(table: Contingency) -> int:
    """Ordered row pairs agreeing on ``X`` but not on ``A``: ``Σs² −
    Σs − Σk² + Σk`` over lhs classes ``s`` and children ``k``."""
    sizes, children = table.sizes, table.children
    return int(
        (sizes * sizes).sum() - sizes.sum() - (children * children).sum() + children.sum()
    )
