"""Partition lifecycle management for the search core.

The :class:`PartitionManager` owns every interaction between the
search loop and stripped partitions: bootstrapping π_∅ and the
singleton partitions, scheduling the partition products of
GENERATE-NEXT-LEVEL through the execution backend (streaming results
into the store so products become resident — and may spill — while
later shards still compute), on-demand materialization of arbitrary
attribute-set masks for node-mode walks (product chains planned from
the best cached/resident ancestor), reclaiming partitions once they
can no longer be referenced (level boundaries in level mode,
strategy-declared liveness in node mode), recomputing partitions for
checkpoint restore (Lemma 3, via the singleton products), and
preserving spill files on the crash path.

The driver and tracker never touch the store directly — they fetch
through :meth:`get` / :meth:`is_superkey`, so the storage policy
(memory vs disk, spill budgets) stays a construction-time concern of
the composition root.
"""

from __future__ import annotations

from repro import _bitset
from repro.model.relation import Relation
from repro.partition.store import DiskPartitionStore, PartitionStore
from repro.partition.vectorized import (
    CsrPartition,
    PartitionWorkspace,
    batched_error_counts,
)
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
    partition_strategy:
        ``"pairwise"`` (the paper's product of two previous-level
        partitions, Lemma 3) or ``"from_singletons"`` (re-multiply the
        singleton partitions — the ablation-only Schlimmer model of
        Section 6, always serial).
    cache:
        Optional cross-run partition cache (duck-typed
        ``get(fingerprint, mask)`` / ``put(fingerprint, mask, π)``,
        see :class:`repro.partition.cache.PartitionCache`).  Consulted
        for singletons and for product levels up to ``cache_levels``
        attributes; hits skip the product (and its counter) entirely.
    cache_fingerprint:
        Cache key prefix identifying the relation *and* the partition
        engine — entries from one engine must never satisfy another.
    cache_levels:
        Largest attribute-set size stored in / served from the cache.
    cache_hits_counter / cache_misses_counter:
        Counter instruments for cache telemetry (private throwaway
        counters by default).
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
        partition_strategy: str = "pairwise",
        cache=None,
        cache_fingerprint: str = "",
        cache_levels: int = 2,
        cache_hits_counter: Counter | None = None,
        cache_misses_counter: Counter | None = None,
    ) -> None:
        self.relation = relation
        self.num_rows = relation.num_rows
        self.num_attributes = relation.num_attributes
        self.partition_cls = partition_cls
        self.store = store
        self.workspace = workspace
        self.executor = executor
        self.partition_strategy = partition_strategy
        self._c_products = products_counter if products_counter is not None else Counter()
        self._cache = cache
        self._cache_fingerprint = cache_fingerprint
        self._cache_levels = cache_levels
        self._c_cache_hits = cache_hits_counter if cache_hits_counter is not None else Counter()
        self._c_cache_misses = (
            cache_misses_counter if cache_misses_counter is not None else Counter()
        )
        self._singletons: list = []
        # Masks (popcount > 1) the node engine materialized on demand;
        # the reclamation unit of node-mode runs (see reclaim_except).
        self._resident: set[int] = set()

    # ------------------------------------------------------------------
    # Bootstrap and access
    # ------------------------------------------------------------------

    def bootstrap(self, *, include_empty: bool = True) -> list[int]:
        """Load π_∅ and the singleton partitions; return level 1.

        π_∅ (one class holding every row) is needed to test the
        level-1 dependencies ``∅ -> A``; UCC discovery skips it.
        Starting a run also resets any resident shared-memory state a
        delta-shipping executor kept from a previous run (masks are
        small integers reused across relations, so stale residency
        would alias partitions of a different relation).
        """
        begin_run = getattr(self.executor, "begin_run", None)
        if begin_run is not None:
            begin_run()
        self._resident = set()
        if include_empty:
            self.store.put(0, self.partition_cls.single_class(self.num_rows))
        self._singletons = []
        for i in range(self.num_attributes):
            mask = _bitset.bit(i)
            partition = self._cache_get(mask)
            if partition is None:
                partition = self.partition_cls.from_column(
                    self.relation.column_codes(i), self.num_rows
                )
                self._cache_put(mask, partition)
            self._singletons.append(partition)
            self.store.put(mask, partition)
        return [_bitset.bit(i) for i in range(self.num_attributes)]

    def _cache_get(self, mask: int):
        """Cache lookup (``None`` when disabled, out of level, or missed)."""
        if self._cache is None or _bitset.popcount(mask) > self._cache_levels:
            return None
        partition = self._cache.get(self._cache_fingerprint, mask)
        if partition is None:
            self._c_cache_misses.inc()
        else:
            self._c_cache_hits.inc()
        return partition

    def _cache_put(self, mask: int, partition) -> None:
        if self._cache is None or _bitset.popcount(mask) > self._cache_levels:
            return
        indices = getattr(partition, "indices", None)
        if indices is not None and getattr(indices, "base", None) is not None:
            # A parallel run's products can be views over a shared-memory
            # block the executor will close; the cache outlives the run,
            # so store an owned copy rather than pinning the mapping.
            partition = type(partition).attach(
                indices.copy(), partition.offsets.copy(), partition.num_rows
            )
        self._cache.put(self._cache_fingerprint, mask, partition)

    def get(self, mask: int):
        """Fetch ``π_mask`` from the store."""
        return self.store.get(mask)

    def is_superkey(self, mask: int) -> bool:
        """``e(π_mask) == 0``: no two rows agree on ``mask``."""
        return self.store.get(mask).is_superkey()

    def error_count(self, mask: int) -> int:
        """``e(π_mask)``: rows to remove for ``mask`` to be unique."""
        return self.store.get(mask).error_count

    # ------------------------------------------------------------------
    # GENERATE-NEXT-LEVEL products
    # ------------------------------------------------------------------

    def materialize(
        self,
        triples: list[tuple[int, int, int]],
        errors: list[int] | None = None,
        *,
        ranks_only: bool = False,
    ) -> list[int]:
        """Compute and store the partitions of the next level.

        ``triples`` are ``(candidate, factor_x, factor_y)`` from the
        traversal strategy; the returned list is the next level's
        masks in candidate order.  ``errors``, when given, receives
        ``e(π)`` of each returned mask, in the same order.

        ``ranks_only`` says the caller needs nothing but those ranks:
        the partitions will never be product factors or measured.  The
        products are then only counted (:func:`batched_error_counts`,
        in this process whatever the executor) and nothing is stored,
        unless the partition cache keeps sets of this size or the
        engine is not the CSR one.  Such products still count in
        ``tane.partition_products``.
        """
        if (
            ranks_only
            and errors is not None
            and triples
            and self.partition_strategy == "pairwise"
            and self.partition_cls is CsrPartition
            and not self._cache_keeps(triples[0][0])
        ):
            return self._rank_only(triples, errors)
        next_level: list[int] = []
        if self.partition_strategy != "pairwise":
            # Ablation-only strategy; always serial (see TaneConfig).
            for candidate, _factor_x, _factor_y in triples:
                product = self.product_from_singletons(candidate)
                self.store.put(candidate, product)
                next_level.append(candidate)
                if errors is not None:
                    errors.append(product.error_count)
            return next_level

        pending = triples
        hit_any = False
        ranks: dict[int, int] = {}
        if triples and self._cache_keeps(triples[0][0]):
            pending = []
            for triple in triples:
                partition = self._cache_get(triple[0])
                if partition is None:
                    pending.append(triple)
                else:
                    hit_any = True
                    self.store.put(triple[0], partition)
                    ranks[triple[0]] = partition.error_count

        products = self.executor.products(pending, self.store.get, self.workspace)

        def stream():
            # The store consumes the executor's result stream directly:
            # products become resident (and may spill) while later
            # shards are still computing in the pool.
            for candidate, product in products:
                faults.check("tane.products.consume")
                self._c_products.inc()
                self._cache_put(candidate, product)
                next_level.append(candidate)
                ranks[candidate] = product.error_count
                yield candidate, product

        try:
            put_many = getattr(self.store, "put_many", None)
            if put_many is not None:
                put_many(stream())
            else:  # minimal PartitionStore implementations
                for candidate, product in stream():
                    self.store.put(candidate, product)
        finally:
            # Deterministic cleanup: if the store raised between yields
            # the executor's generator would otherwise only finalize at
            # GC.  Shared-memory blocks outlive the stream either way:
            # the executor frees them at release_masks, begin_run or
            # close.
            close = getattr(products, "close", None)
            if close is not None:
                close()
        if hit_any:
            # Cache hits were stored up front; preserve candidate order.
            next_level = [candidate for candidate, _x, _y in triples]
        if errors is not None:
            errors.extend(ranks[candidate] for candidate in next_level)
        return next_level

    def _cache_keeps(self, mask: int) -> bool:
        """Whether the partition cache holds sets of ``mask``'s size."""
        return self._cache is not None and _bitset.popcount(mask) <= self._cache_levels

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
    # Node-mode on-demand materialization
    # ------------------------------------------------------------------

    def materialize_mask(self, mask: int) -> None:
        """Make ``π_mask`` resident for an arbitrary attribute set.

        The node engine has no "previous level" to take product factors
        from, so the product chain is planned here: start from the best
        ancestor already at hand — the cross-run cache, or the resident
        subset with the most attributes — and multiply the missing
        singletons in ascending index order (Lemma 3 applies to any
        factor pair whose union is the target).  Every intermediate is
        stored and registered too: the walk moves between neighboring
        nodes, so an intermediate is the likely best ancestor of the
        next few requests.  Products are counted normally — node-mode
        counters stay deterministic because the walk, the resident set,
        and the reclamation cadence all are.
        """
        if _bitset.popcount(mask) <= 1 or mask in self._resident:
            return
        partition = self._cache_get(mask)
        if partition is not None:
            self.store.put(mask, partition)
            self._resident.add(mask)
            return
        current = self._best_ancestor(mask)
        product = self.store.get(current)
        for index in _bitset.to_indices(mask & ~current):
            current |= _bitset.bit(index)
            if current in self._resident:
                product = self.store.get(current)
                continue
            product = product.product(self._singletons[index], self.workspace)
            self._c_products.inc()
            self._cache_put(current, product)
            self.store.put(current, product)
            self._resident.add(current)

    def _best_ancestor(self, mask: int) -> int:
        """The resident subset of ``mask`` with the most attributes
        (ties to the smallest mask, for determinism); falls back to the
        lowest singleton."""
        best = 0
        best_size = 0
        for resident in self._resident:
            if resident & ~mask != 0:
                continue
            size = _bitset.popcount(resident)
            if size > best_size or (size == best_size and resident < best):
                best = resident
                best_size = size
        if best == 0:
            best = _bitset.bit(_bitset.to_indices(mask)[0])
        return best

    def reclaim_except(self, live_masks: set[int]) -> None:
        """Drop on-demand partitions outside the strategy's live set.

        Node-mode reclamation: liveness is declared by the strategy
        (plus whatever :meth:`materialize_mask` registered since the
        last sweep), not by level boundaries.  π_∅ and the singletons
        are never registered, so they survive every sweep.
        """
        dead = sorted(m for m in self._resident if m not in live_masks)
        if not dead:
            return
        self.reclaim(dead)
        self._resident.difference_update(dead)

    def product_from_singletons(self, candidate: int, *, count: bool = True):
        """Recompute ``π_candidate`` from the single-attribute partitions.

        This is the paper's model of Schlimmer's decision-tree
        approach (Section 6): "roughly equivalent to computing each
        partition from partitions with respect to singletons ...
        slower by a factor O(|R|) than using partitions the way we
        do."  Used by the ablation benchmark and — with ``count=False``
        so restored counters stay identical to an uninterrupted run —
        by checkpoint resume.
        """
        indices = _bitset.to_indices(candidate)
        product = self._singletons[indices[0]]
        for index in indices[1:]:
            product = product.product(self._singletons[index], self.workspace)
            if count:
                self._c_products.inc()
        return product

    # ------------------------------------------------------------------
    # Reclamation, restore, crash path
    # ------------------------------------------------------------------

    def reclaim(self, masks: list[int]) -> None:
        """Drop a completed level's partitions from the store.

        A delta-shipping executor is told too (duck-typed
        ``release_masks``), so its workers' resident shared-memory
        blocks are freed as soon as the level can no longer be
        referenced.  The store discards *first*: partitions from an
        adopted result block are views over the block's mapping, and
        releasing their masks closes it — the views must be dead by
        then.
        """
        for mask in masks:
            self.store.discard(mask)
        release = getattr(self.executor, "release_masks", None)
        if release is not None:
            release(masks)

    def restore(self, mask: int) -> None:
        """Re-establish ``π_mask`` for checkpoint resume.

        π_∅ and singletons are rebuilt by the bootstrap; larger masks
        are adopted from the disk store's spill files when present,
        otherwise recomputed from the singleton partitions without
        perturbing the deterministic counters.
        """
        if _bitset.popcount(mask) <= 1:
            return
        if isinstance(self.store, DiskPartitionStore) and self.store.adopt_spilled(
            mask, self.num_rows
        ):
            return
        self.store.put(mask, self.product_from_singletons(mask, count=False))

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
