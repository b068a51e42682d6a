"""Partition lifecycle management for the search core.

The :class:`PartitionManager` owns every interaction between the
search loop and stripped partitions: bootstrapping π_∅ and the
singleton partitions, scheduling the partition products of
GENERATE-NEXT-LEVEL through the execution backend (streaming results
into the store so products become resident — and may spill — before
later batches are computed), on-demand materialization of arbitrary
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
        # the reclamation unit of node-mode runs (see reclaim_except),
        # also indexed by popcount for the best-ancestor lookup.
        self._resident: set[int] = set()
        self._resident_by_size: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    # Bootstrap and access
    # ------------------------------------------------------------------

    def bootstrap(self, *, include_empty: bool = True) -> list[int]:
        """Load π_∅ and the singleton partitions; return level 1.

        π_∅ (one class holding every row) is needed to test the
        level-1 dependencies ``∅ -> A``; UCC discovery skips it.
        """
        self._resident = set()
        self._resident_by_size = {}
        if include_empty:
            self.store.put(0, self.partition_cls.single_class(self.num_rows))
        self._singletons = []
        for i in range(self.num_attributes):
            mask = _bitset.bit(i)
            codes = self.relation.column_codes(i)
            partition = self._cache_get(mask)
            if partition is None:
                partition = self.partition_cls.from_column(codes, self.num_rows)
                self._cache_put(mask, partition)
            elif isinstance(partition, CsrPartition):
                # The cached entry is shared and column-free; this run's
                # singleton carries this run's codes (column-keyed
                # products) in a fresh wrapper.
                partition = partition.with_column(codes)
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
        if isinstance(partition, CsrPartition):
            # The cache outlives the run: it must not pin the relation's
            # code arrays outside its byte accounting.
            partition = partition.without_column()
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
        traversal strategy (or one step of the node engine's product
        chains, see :meth:`materialize_masks`); the returned list is
        the next level's masks in candidate order.  ``errors``, when given, receives
        ``e(π)`` of each returned mask, in the same order.

        ``ranks_only`` says the caller needs nothing but those ranks:
        the partitions will never be product factors or measured.  The
        products are then only counted (:func:`batched_error_counts`,
        bypassing the executor) and nothing is stored,
        unless the partition cache keeps sets of this size or the
        engine is not the CSR one.  Such products still count in
        ``tane.partition_products``.
        """
        if (
            ranks_only
            and errors is not None
            and triples
            and self.partition_cls is CsrPartition
            and not self._cache_keeps(triples[0][0])
        ):
            return self._rank_only(triples, errors)
        next_level: list[int] = []
        pending = triples
        hit_any = False
        ranks: dict[int, int] = {}
        if any(self._cache_keeps(candidate) for candidate, _x, _y in triples):
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
            # batches are still to be computed.
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
            # GC.
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
        """Make ``π_mask`` resident (:meth:`materialize_masks` of one)."""
        self.materialize_masks([mask])

    def materialize_masks(self, masks: list[int]) -> None:
        """Make ``π_mask`` resident for arbitrary attribute sets.

        The node engine has no "previous level" to take product factors
        from, so each mask's product chain is planned here: start from
        the resident subset with the most attributes and multiply the
        missing singletons in ascending index order (Lemma 3 applies to
        any factor pair whose union is the target).  Step *k* of every
        chain runs as one :meth:`materialize` call through the executor
        (which serves chain steps from the cross-run cache where it
        can), an intermediate shared by several chains computed once.
        Every intermediate is stored and registered too: the
        walks move between neighboring nodes, so an intermediate is the
        likely best ancestor of the next few requests.  Products are
        counted normally — node-mode counters stay deterministic
        because the walk, the resident set, and the reclamation cadence
        all are.
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

        Node-mode reclamation: liveness is declared by the strategy
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

    def product_from_singletons(self, candidate: int):
        """Recompute ``π_candidate`` from the single-attribute partitions
        for checkpoint resume.  The products are not counted, so
        restored counters stay identical to an uninterrupted run."""
        indices = _bitset.to_indices(candidate)
        product = self._singletons[indices[0]]
        for index in indices[1:]:
            product = product.product(self._singletons[index], self.workspace)
        return product

    # ------------------------------------------------------------------
    # Reclamation, restore, crash path
    # ------------------------------------------------------------------

    def reclaim(self, masks: list[int]) -> None:
        """Drop a completed level's partitions from the store."""
        for mask in masks:
            self.store.discard(mask)

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
        self.store.put(mask, self.product_from_singletons(mask))

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
