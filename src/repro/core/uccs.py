"""Discovery of minimal unique column combinations (keys).

TANE reports the minimal keys it meets as a side effect; this module
makes key discovery a first-class task on the same machinery.  A set
``X`` is *unique* (a superkey) iff no two rows agree on it —
``e(π_X) = 0`` in stripped-partition terms — and an *approximate*
unique column combination at threshold ε iff removing at most
``ε·|r|`` rows makes it unique, which is exactly ``e(π_X) ≤ ε·|r|``
(each surplus row of each equivalence class must go).

Uniqueness is monotone under attribute addition, so the levelwise
search with apriori generation over the *non-unique* sets yields
exactly the minimal (approximate) UCCs, with no extra minimality
bookkeeping: a candidate is generated only if every subset was
non-unique.

The walk itself is a thin composition of the search-core components:
:class:`~repro.search.partitions.PartitionManager` owns partition
bootstrap, products and reclamation, and a level is a mask array (of
:func:`~repro._bitset.mask_dtype`) with its ranks, split by
``e(π_X) ≤ ε·|r|`` and joined by
:func:`~repro.core.lattice.generate_next_level_arrays` — the same
arrays and join TANE's levelwise walk uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import _bitset
from repro.core.lattice import generate_next_level_arrays
from repro.exceptions import ConfigurationError
from repro.model.relation import Relation
from repro.model.schema import RelationSchema
from repro.partition.store import MemoryPartitionStore
from repro.partition.vectorized import CsrPartition, PartitionWorkspace
from repro.search.execution import SerialExecution
from repro.search.partitions import PartitionManager

__all__ = ["UccResult", "discover_uccs"]


@dataclass
class UccResult:
    """Minimal (approximate) unique column combinations of a relation.

    Attributes
    ----------
    uccs:
        Attribute-set bitmasks, in discovery (levelwise) order.  Each
        is minimal: no proper subset is unique at the same threshold.
    errors:
        Per UCC, the fraction of rows to remove for exact uniqueness
        (0.0 for exactly unique sets), aligned with ``uccs``.
    schema:
        The relation's schema, for rendering.
    epsilon:
        The threshold used.
    level_sizes:
        Sets examined per level (search-size diagnostics).
    elapsed_seconds:
        Wall-clock time of the search.
    """

    uccs: list[int]
    errors: list[float]
    schema: RelationSchema
    epsilon: float
    level_sizes: list[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.uccs)

    def ucc_names(self) -> list[tuple[str, ...]]:
        """The UCCs rendered as attribute-name tuples."""
        return [self.schema.names_of(mask) for mask in self.uccs]

    def format(self) -> str:
        """Human-readable one-line-per-UCC rendering."""
        lines = [f"<UccResult eps={self.epsilon}: {len(self.uccs)} minimal UCCs>"]
        for mask, error in zip(self.uccs, self.errors):
            suffix = f"  (g3={error:.4f})" if error else ""
            lines.append(f"  {{{', '.join(self.schema.names_of(mask))}}}{suffix}")
        return "\n".join(lines)


def discover_uccs(
    relation: Relation,
    epsilon: float = 0.0,
    max_size: int | None = None,
) -> UccResult:
    """Find all minimal (approximate) unique column combinations.

    Parameters
    ----------
    relation:
        The table to analyse.
    epsilon:
        Maximum fraction of rows whose removal may be assumed; 0 gives
        exact keys (matching TANE's key output on duplicate-free data).
    max_size:
        Optional limit on the number of attributes per combination.

    The search is levelwise: level ℓ holds the size-ℓ sets all of whose
    subsets are non-unique; unique sets are reported and removed, so
    outputs are exactly the minimal ones.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
    if max_size is not None and max_size < 1:
        raise ConfigurationError(f"max_size must be >= 1, got {max_size}")
    start = time.perf_counter()
    num_rows = relation.num_rows
    threshold = int(epsilon * num_rows + 1e-9)
    limit = (
        relation.num_attributes
        if max_size is None
        else min(max_size, relation.num_attributes)
    )
    partitions = PartitionManager(
        relation,
        CsrPartition,
        MemoryPartitionStore(),
        PartitionWorkspace(num_rows),
        SerialExecution(),
    )
    dtype = _bitset.mask_dtype(relation.num_attributes)
    level = np.array(partitions.bootstrap(include_empty=False, levels=True), dtype=dtype)
    ranks = partitions.error_counts(level)
    result = UccResult(uccs=[], errors=[], schema=relation.schema, epsilon=epsilon)
    level_number = 1
    while level.size and level_number <= limit:
        result.level_sizes.append(int(level.size))
        unique = ranks <= threshold
        result.uccs.extend(level[unique].tolist())
        # Below one row every rank is 0, so the max only avoids 0 / 0.
        result.errors.extend((ranks[unique] / max(num_rows, 1)).tolist())
        next_level = level[:0]
        if level_number < limit:
            errors: list[int] = []
            next_level = np.array(
                partitions.materialize(generate_next_level_arrays(level[~unique]), errors),
                dtype=dtype,
            )
            ranks = np.array(errors, dtype=np.int64)
        partitions.reclaim(level)
        level = next_level
        level_number += 1
    result.elapsed_seconds = time.perf_counter() - start
    return result
