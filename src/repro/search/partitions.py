"""Partition lifecycle management for the search core.

The :class:`PartitionManager` owns every interaction between the
search loop and stripped partitions: bootstrapping π_∅ and the
singleton partitions, scheduling the partition products of
GENERATE-NEXT-LEVEL through the execution backend, on-demand
materialization of arbitrary attribute-set masks for the DFD walk
(product chains planned from the best resident ancestor),
reclaiming partitions once they can no longer be referenced (in a
levelwise walk the previous level, once the current one is pruned and
before the next is generated; the walk's declared liveness in DFD),
recomputing partitions for checkpoint restore
(Lemma 3, by product chains from the singletons), and preserving spill
files on the crash path.

Two storage forms
-----------------
A levelwise walk (levelwise and top-k strategies, UCC discovery) over a
relation of at most ``_DENSE_MAX_ROWS`` rows, on the CSR engine, keeps
each level as one :class:`~repro.partition.vectorized.LevelBlock`: a
label matrix with one row per mask, the masks in the level's own dtype
(:func:`~repro._bitset.mask_dtype`, so any schema width).  Level 1 is
built from the column codes
(:meth:`~repro.partition.vectorized.LevelBlock.from_columns`), with no
CSR singletons; a later level's products are one
:meth:`~repro.search.execution.SerialExecution.level_products` call on
the dense kernel, and its store write, byte accounting, reclaim, disk
spill and spill adoption each happen once per level.  Only π_∅ stays a
CSR partition (store key 0): the validity tests read it as a constant
label row.  Everything else — taller relations, DFD walks, the pure
engine — keeps one CSR partition per mask, multiplied by the pooled
kernel, with products streamed from the executor into the store so
they become resident (and may spill) before later batches are
computed.  Neither form is ever converted into the other.

The driver and tracker never touch the store directly — they fetch
through :meth:`get` / :meth:`error_counts`, and a batch of validity
tests through :meth:`batch_fetch`, which hands the measures a block's
rows as label rows, so the storage policy (memory vs disk, spill
budgets, blocks vs per-mask partitions) stays a concern of this class
and the composition root.
"""

from __future__ import annotations

import numpy as np

from repro import _bitset
from repro.core.lattice import LevelCandidates
from repro.model.relation import Relation
from repro.partition.errors import LabelRow
from repro.partition.store import DiskPartitionStore, PartitionStore
from repro.partition.vectorized import (
    LABEL_DTYPE,
    CsrPartition,
    LevelBlock,
    PartitionWorkspace,
    batched_error_counts,
    dense_relation,
)
from repro.search.execution import Fetch, SerialExecution
from repro.search.instruments import Counter
from repro.testing import faults

__all__ = ["PartitionManager"]

# Rank-only products per batched_error_counts call.  A disk store's
# factors are fetched again for every batch, which bounds what it must
# keep loaded; other stores hold the whole level resident anyway, and
# each factor is fetched once per level.
_RANK_BATCH = 2048


class PartitionManager:
    """Partition bootstrap, product scheduling, and reclamation.

    Parameters
    ----------
    relation:
        The relation under search (column codes feed the singleton
        partitions).
    partition_cls:
        Partition implementation (:class:`CsrPartition` or the pure
        reference engine); must provide ``single_class``,
        ``from_column`` and ``product``.
    store:
        The partition store; the manager uses it but never closes it —
        store lifetime belongs to the composition root.
    workspace:
        Scratch buffers shared by all product computations.
    executor:
        Execution backend supplying the ``products`` stream.
    products_counter:
        Counter instrument bumped once per computed product; defaults
        to a private throwaway counter.
    """

    def __init__(
        self,
        relation: Relation,
        partition_cls,
        store: PartitionStore,
        workspace: PartitionWorkspace,
        executor,
        *,
        products_counter: Counter | None = None,
    ) -> None:
        self.relation = relation
        self.num_rows = relation.num_rows
        self.num_attributes = relation.num_attributes
        self.partition_cls = partition_cls
        self.store = store
        self.workspace = workspace
        self.executor = executor
        self._c_products = products_counter if products_counter is not None else Counter()
        self._singletons: list = []
        # Masks (popcount > 1) materialize_masks built on demand; the
        # reclamation unit of DFD walks (see reclaim_except),
        # also indexed by popcount for the best-ancestor lookup.
        self._resident: set[int] = set()
        self._resident_by_size: dict[int, set[int]] = {}
        # The block form (see "Two storage forms"): chosen by bootstrap;
        # the sizes whose level block the store holds, keyed -size.
        self.level_blocks = False
        self._block_levels: set[int] = set()

    # ------------------------------------------------------------------
    # Bootstrap and access
    # ------------------------------------------------------------------

    def bootstrap(self, *, include_empty: bool = True, levels: bool = False) -> list[int]:
        """Load π_∅ and the singleton partitions; return level 1.

        π_∅ (one class holding every row) is needed to test the
        level-1 dependencies ``∅ -> A``; UCC discovery skips it.
        ``levels`` says the caller walks the lattice level by level, so
        the block form applies where the relation allows it; level 1's
        block is then built from the column codes, and no CSR singleton
        is.
        """
        self._resident = set()
        self._resident_by_size = {}
        self._block_levels = set()
        self.level_blocks = (
            levels and self.partition_cls is CsrPartition and dense_relation(self.num_rows)
        )
        if include_empty:
            self.store.put(0, self.partition_cls.single_class(self.num_rows))
        level = [_bitset.bit(i) for i in range(self.num_attributes)]
        if self.level_blocks:
            self._singletons = []
            self._put_block(1, LevelBlock.from_columns(self.relation))
            return level
        self._singletons = [
            self.partition_cls.from_column(self.relation.column_codes(i), self.num_rows)
            for i in range(self.num_attributes)
        ]
        for mask, partition in zip(level, self._singletons):
            self.store.put(mask, partition)
        return level

    def _put_block(self, size: int, block: LevelBlock) -> None:
        self.store.put(-size, block)
        self._block_levels.add(size)

    def get(self, mask: int):
        """Fetch the stored ``π_mask`` of the per-mask form (the DFD
        walk's; a block is read through :meth:`batch_fetch`)."""
        return self.store.get(mask)

    def batch_fetch(self) -> Fetch:
        """The fetch of one batch of validity tests.  In the block form
        it reads each level block it touches once and returns every mask
        as a label row (:meth:`LevelBlock.row`), π_∅ as the constant row
        of one class holding every row (the block form has at least two
        rows): a batch builds no CSR partition, stores nothing, and
        loads each spilled block at most once."""
        if not self.level_blocks:
            return self.store.get
        empty = LabelRow(np.zeros(self.num_rows, dtype=LABEL_DTYPE), 1, self.num_rows - 1)
        blocks: dict[int, LevelBlock] = {}

        def fetch(mask: int):
            if not mask:
                return empty
            key = -_bitset.popcount(mask)
            block = blocks.get(key)
            if block is None:
                blocks[key] = block = self.store.get(key)
            return block.row(mask)

        return fetch

    def error_counts(self, masks) -> np.ndarray:
        """``e(π)`` of every mask of one level, as an ``int64`` array."""
        if len(masks):
            size = _bitset.popcount(int(masks[0]))
            if size in self._block_levels:
                block = self.store.get(-size)
                return block.errors[block.rows_of(masks)]
        return np.array([self.store.get(int(m)).error_count for m in masks], dtype=np.int64)

    def stripped_rows(self, masks) -> int | None:
        """``Σ‖π̂‖`` over one level's ``masks``, read from resident
        partitions only; ``None`` when any is spilled, unstored or
        rank-only.  Never loads or refreshes a recency order."""
        if len(masks):
            size = _bitset.popcount(int(masks[0]))
            if size in self._block_levels:
                block = self.store.peek(-size)
                return None if block is None else block.stripped_rows()
        total = 0
        for mask in masks:
            partition = self.store.peek(mask)
            if partition is None:
                return None
            total += partition.stripped_size
        return total

    # ------------------------------------------------------------------
    # GENERATE-NEXT-LEVEL products
    # ------------------------------------------------------------------

    def materialize(
        self,
        triples: "list[tuple[int, int, int]] | LevelCandidates",
        errors: list[int] | None = None,
        *,
        ranks_only: bool = False,
    ) -> list[int]:
        """Compute and store the partitions of the next level.

        ``triples`` are ``(candidate, factor_x, factor_y)`` from the
        traversal strategy (or one step of the DFD walk's product
        chains, see :meth:`materialize_masks`), as a list or as lattice
        generation's arrays; the returned masks are the next level's,
        in candidate order.  ``errors``, when given, receives ``e(π)``
        of each returned mask, in the same order.

        ``ranks_only`` says the caller needs nothing but those ranks:
        the partitions will never be product factors or measured.  The
        products are then only counted and nothing is stored but the
        ranks, unless the engine is not the CSR one.  Such products
        still count in ``tane.partition_products``.

        In the block form the whole level is one
        :meth:`~repro.search.execution.SerialExecution.level_products`
        call over the previous level's block, stored as one block; the
        levelwise callers pass lattice generation's arrays.
        """
        if self.level_blocks:
            block = self._level_products(triples, ranks_only)
            if errors is not None:
                errors.extend(block.errors.tolist())
            return block.masks.tolist()
        if isinstance(triples, LevelCandidates):
            triples = triples.triples()
        if (
            ranks_only
            and errors is not None
            and triples
            and self.partition_cls is CsrPartition
        ):
            return self._rank_only(triples, errors)
        next_level: list[int] = []
        products = self.executor.products(triples, self.store.get, self.workspace)

        def stream():
            # The store consumes the executor's result stream directly:
            # products become resident (and may spill) while later
            # batches are still to be computed.
            for candidate, product in products:
                faults.check("tane.products.consume")
                self._c_products.inc()
                next_level.append(candidate)
                if errors is not None:
                    errors.append(product.error_count)
                yield candidate, product

        try:
            self.store.put_many(stream())
        finally:
            # Deterministic cleanup: if the store raised between yields
            # the executor's generator would otherwise only finalize at
            # GC.
            close = getattr(products, "close", None)
            if close is not None:
                close()
        return next_level

    def _level_products(self, triples: LevelCandidates, ranks_only: bool) -> LevelBlock:
        """The block form of :meth:`materialize`: one level, one block."""
        candidates = triples.candidates
        if candidates.size == 0:
            return LevelBlock(candidates, None, None, np.zeros(0, dtype=np.int64), self.num_rows)
        size = _bitset.popcount(int(candidates[0]))
        factors = self.store.get(-(size - 1))
        block = self.executor.level_products(
            factors, candidates, *triples.factor_rows, ranks_only=ranks_only
        )
        self._c_products.inc(int(candidates.size))
        faults.check("tane.products.consume")
        self._put_block(size, block)
        return block

    def _rank_only(
        self, triples: list[tuple[int, int, int]], errors: list[int]
    ) -> list[int]:
        """``e(π)`` of every candidate from its factors; nothing stored."""
        fetched: dict[int, CsrPartition] = {}
        for start in range(0, len(triples), _RANK_BATCH):
            if isinstance(self.store, DiskPartitionStore):
                fetched = {}
            pairs = []
            for _candidate, factor_x, factor_y in triples[start:start + _RANK_BATCH]:
                for mask in (factor_x, factor_y):
                    if mask not in fetched:
                        fetched[mask] = self.store.get(mask)
                pairs.append((fetched[factor_x], fetched[factor_y]))
            errors.extend(batched_error_counts(pairs, self.workspace))
        self._c_products.inc(len(triples))
        return [candidate for candidate, _x, _y in triples]

    # ------------------------------------------------------------------
    # On-demand materialization (DFD)
    # ------------------------------------------------------------------

    def materialize_mask(self, mask: int) -> None:
        """Make ``π_mask`` resident (:meth:`materialize_masks` of one)."""
        self.materialize_masks([mask])

    def materialize_masks(self, masks: list[int]) -> None:
        """Make ``π_mask`` resident for arbitrary attribute sets.

        A DFD walk has no "previous level" to take product factors
        from, so each mask's product chain is planned here: start from
        the resident subset with the most attributes and multiply the
        missing singletons in ascending index order (Lemma 3 applies to
        any factor pair whose union is the target).  Step *k* of every
        chain runs as one :meth:`materialize` call through the executor,
        an intermediate shared by several chains computed once.  Every
        intermediate is stored and registered too: the walks move
        between neighboring nodes, so an intermediate is the likely best
        ancestor of the next few requests.  Products are counted
        normally — DFD counters stay deterministic because the walk,
        the resident set, and the reclamation cadence all are.
        """
        chains: list[list[tuple[int, int, int]]] = []
        for mask in masks:
            if _bitset.popcount(mask) <= 1 or mask in self._resident:
                continue
            current = self._best_ancestor(mask)
            chain = []
            for index in _bitset.to_indices(mask & ~current):
                singleton = _bitset.bit(index)
                chain.append((current | singleton, current, singleton))
                current |= singleton
            chains.append(chain)
        for step in range(max(map(len, chains), default=0)):
            triples = []
            planned: set[int] = set()
            for chain in chains:
                if step >= len(chain):
                    continue
                target = chain[step][0]
                if target in self._resident or target in planned:
                    continue
                planned.add(target)
                triples.append(chain[step])
            if triples:
                for target in self.materialize(triples):
                    self._register(target)

    def _register(self, mask: int) -> None:
        self._resident.add(mask)
        self._resident_by_size.setdefault(_bitset.popcount(mask), set()).add(mask)

    def _best_ancestor(self, mask: int) -> int:
        """The resident subset of ``mask`` with the most attributes
        (ties to the smallest mask, for determinism); falls back to the
        lowest singleton.  Sizes are tried from the largest down, so
        only the resident masks of the sizes above the answer are
        scanned; at the size just below ``mask``, its immediate subsets
        are looked up instead when they are fewer."""
        indices = _bitset.to_indices(mask)
        for size in range(len(indices) - 1, 1, -1):
            residents = self._resident_by_size.get(size, ())
            if size == len(indices) - 1 and len(indices) < len(residents):
                found = [
                    subset
                    for _index, subset in _bitset.iter_subsets_one_smaller(mask)
                    if subset in residents
                ]
            else:
                found = [resident for resident in residents if resident & ~mask == 0]
            if found:
                return min(found)
        return _bitset.bit(indices[0])

    def reclaim_except(self, live_masks: set[int]) -> None:
        """Drop on-demand partitions outside the strategy's live set.

        DFD reclamation: liveness is declared by the strategy
        (plus whatever :meth:`materialize_masks` registered since the
        last sweep), not by level boundaries.  π_∅ and the singletons
        are never registered, so they survive every sweep.
        """
        dead = sorted(m for m in self._resident if m not in live_masks)
        if not dead:
            return
        self.reclaim(dead)
        self._resident.difference_update(dead)
        for mask in dead:
            self._resident_by_size[_bitset.popcount(mask)].discard(mask)

    # ------------------------------------------------------------------
    # Reclamation, restore, crash path
    # ------------------------------------------------------------------

    def reclaim(self, masks) -> None:
        """Drop a completed level's partitions from the store (its
        block, in the block form)."""
        if len(masks):
            size = _bitset.popcount(int(masks[0]))
            if size in self._block_levels:
                self.store.discard(-size)
                self._block_levels.discard(size)
                return
        for mask in masks:
            self.store.discard(int(mask))

    def restore_level(self, masks, *, ranks_only: bool = False) -> None:
        """Re-establish one level's partitions for checkpoint resume.

        π_∅ and the singletons come from the bootstrap.  A larger
        level is adopted from the disk store's spill files when present
        (in the block form, one spill holding exactly ``masks``), else
        rebuilt from the singletons by product chains, uncounted, so
        restored counters stay identical to an uninterrupted run.  The
        block form rebuilds only the ranks with ``ranks_only``.
        """
        masks = sorted(int(mask) for mask in masks)
        if not masks or _bitset.popcount(masks[0]) <= 1:
            return
        size = _bitset.popcount(masks[0])
        disk = isinstance(self.store, DiskPartitionStore)
        if not self.level_blocks:
            if disk:
                masks = [m for m in masks if not self.store.adopt_spilled(m, self.num_rows)]
            if masks:
                self._rebuild(masks)
            return
        array = np.array(masks, dtype=_bitset.mask_dtype(self.num_attributes))
        if disk and self.store.adopt_spilled_block(
            size, array, self.num_rows, ranks_only=ranks_only
        ):
            self._block_levels.add(size)
            return
        self._put_block(size, self.store.get(-1).chains(array, ranks_only=ranks_only))

    def _rebuild(self, masks: list[int]) -> None:
        """Store ``π_mask`` of every mask of one level by product chains
        from the singletons, in ascending attribute order (Lemma 3).
        Step *k* of every chain is one call of the serial executor,
        which batches CSR factors and multiplies pure ones pair by pair;
        an intermediate shared by several chains is computed once.
        Nothing is counted, not even by an injected executor."""
        singletons = {_bitset.bit(i): p for i, p in enumerate(self._singletons)}
        partitions = singletons
        chains = [_bitset.to_indices(mask) for mask in masks]
        size = len(chains[0])
        for step in range(2, size + 1):
            triples = {}
            for indices in chains:
                target = _bitset.from_indices(indices[:step])
                last = _bitset.bit(indices[step - 1])
                triples[target] = (target, target & ~last, last)
            products = SerialExecution().products(
                sorted(triples.values()), partitions.__getitem__, self.workspace
            )
            if step == size:
                self.store.put_many(products)
            else:
                partitions = {**singletons, **dict(products)}

    def preserve_spill_files(self) -> None:
        """Keep spill files on a crash: they are the partitions a
        checkpoint resume would otherwise recompute."""
        if isinstance(self.store, DiskPartitionStore):
            self.store.preserve_spill_files = True

    def collect_stats(self, metrics) -> None:
        """Publish the store's I/O telemetry as gauges."""
        store = self.store
        if isinstance(store, DiskPartitionStore):
            metrics.gauge("store.spill_count").set(store.spill_count)
            metrics.gauge("store.load_count").set(store.load_count)
        peak = getattr(store, "peak_resident_bytes", 0)
        metrics.gauge("store.peak_resident_bytes").set(int(peak))
