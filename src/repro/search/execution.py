"""The execution backend of the search core.

One lattice level has two loops: the partition products of
GENERATE-NEXT-LEVEL and the validity tests of COMPUTE-DEPENDENCIES.
The search driver delegates both to :class:`SerialExecution`:

``products(triples, fetch, workspace)``
    Yield ``(candidate, partition)`` per product triple, in candidate
    order (the driver streams them into the partition store).
``level_products(factors, candidates, x_rows, y_rows, ranks_only=)``
    The block form's products: the next level's
    :class:`~repro.partition.vectorized.LevelBlock` from the current
    level's block, in one call (see
    :mod:`repro.search.partitions`).
``validity_tests(groups, fetch, criteria, workspace)``
    Run every group's tests; outcomes flattened in group order.

Both run in the driver's process, as in the paper.  The parallelism
lives one layer down: on a tall relation the batched product kernel
(:func:`repro.partition.vectorized.batched_products`) runs each call's
left-factor groups on a thread pool sized from the CPU affinity mask,
with byte-identical results.  ``TaneConfig(executor=...)`` injects a
subclass (the from-singletons ablation in :mod:`repro.bench.workloads`
is one).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

import numpy as np

from repro.partition.errors import LabelRow
from repro.partition.vectorized import (
    CsrPartition,
    LevelBlock,
    PartitionWorkspace,
    batched_products,
)
from repro.search.measures import ValidityCriteria, ValidityOutcome, evaluate_validity

__all__ = ["Fetch", "ValidityGroups", "SerialExecution"]

# Products per batched_products call: large enough to amortize the
# shared argsort, small enough that streaming into the store (which
# may spill) is not delayed by a whole level.
_PRODUCT_BATCH = 256

Fetch = Callable[[int], "CsrPartition | LabelRow"]
# ``(whole_mask, [(rhs_index, lhs_mask), ...])`` in level order; the
# rhs indices identify the dependent attribute for measures that need
# its marginal statistics (criteria.rhs_stats).
ValidityGroups = Sequence[tuple[int, Sequence[tuple[int, int]]]]


class SerialExecution:
    """Run every task inline — the classic TANE loop.

    Products run through
    :func:`repro.partition.vectorized.batched_products` a batch at a
    time; a batch touching any partition that is not a
    :class:`CsrPartition` (the pure reference engine) falls back to one
    ``product`` call per triple.
    """

    def products(
        self,
        triples: Sequence[tuple[int, int, int]],
        fetch: Fetch,
        workspace: PartitionWorkspace,
    ) -> Iterator[tuple[int, CsrPartition]]:
        """Yield ``(candidate, partition)`` per product triple, in order."""
        triples = list(triples)
        for start in range(0, len(triples), _PRODUCT_BATCH):
            chunk = triples[start:start + _PRODUCT_BATCH]
            # Memoize fetches within the batch: stores may rebuild the
            # partition object per get(), and batched_products reuses
            # one probe scatter only for *identical* left factors.
            fetched: dict[int, CsrPartition] = {}
            for _candidate, factor_x, factor_y in chunk:
                for mask in (factor_x, factor_y):
                    if mask not in fetched:
                        fetched[mask] = fetch(mask)
            if any(
                not isinstance(partition, CsrPartition)
                for partition in fetched.values()
            ):
                for candidate, factor_x, factor_y in chunk:
                    yield candidate, fetched[factor_x].product(
                        fetched[factor_y], workspace
                    )
                continue
            pairs = [(fetched[x], fetched[y]) for _, x, y in chunk]
            for (candidate, _x, _y), product in zip(
                chunk, batched_products(pairs, workspace)
            ):
                yield candidate, product

    def level_products(
        self,
        factors: LevelBlock,
        candidates: np.ndarray,
        x_rows: np.ndarray,
        y_rows: np.ndarray,
        *,
        ranks_only: bool = False,
    ) -> LevelBlock:
        """The block of ``candidates`` from the block of their factors,
        whose rows in it are ``x_rows`` and ``y_rows`` (Lemma 3), or
        only its ranks with ``ranks_only``."""
        return factors.products(candidates, x_rows, y_rows, ranks_only=ranks_only)

    def validity_tests(
        self,
        groups: ValidityGroups,
        fetch: Fetch,
        criteria: ValidityCriteria,
        workspace: PartitionWorkspace,
    ) -> list[ValidityOutcome]:
        """Run every group's tests; outcomes flattened in group order."""
        outcomes: list[ValidityOutcome] = []
        for whole_mask, pairs in groups:
            pi_whole = fetch(whole_mask)
            for rhs, lhs_mask in pairs:
                outcomes.append(
                    evaluate_validity(fetch(lhs_mask), pi_whole, criteria, workspace, rhs)
                )
        return outcomes
