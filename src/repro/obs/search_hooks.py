"""The search driver's observability plugin.

:class:`TracingHooks` is the bridge between the search core's span
seam (:meth:`repro.search.hooks.SearchHooks.span`) and the
module-level tracer of :mod:`repro.obs.trace`: every driver phase span
is forwarded to :func:`repro.obs.trace.span`, so a traced run produces
the ``level`` / phase / ``node_batch`` spans of the one telemetry
stream.

At each level boundary it also measures the next level's row-work
(``Σ‖π̂‖``, the summed stripped sizes of partitions that were just
materialized — a few ``stripped_size`` reads, not a recomputation) and
reads the partition-cache totals; both go on that level's open record,
where the ``--progress`` line's ETA model reads them.  The composition
root attaches this hook only to traced runs, and it does nothing while
no tracer is active, so an untraced run computes nothing for it.

This module depends on :mod:`repro.search`; the search core never
imports :mod:`repro.obs` (enforced by ``make layers``).
"""

from __future__ import annotations

from repro.obs import trace as obs
from repro.search.hooks import LevelBoundary, SearchHooks

__all__ = ["TracingHooks"]


class TracingHooks(SearchHooks):
    """Forward driver phase spans into the active tracer (if any)."""

    def __init__(self) -> None:
        self._next_level: dict = {}

    def span(self, name: str, **attributes):
        if name == "level" and self._next_level:
            attributes.update(self._next_level)
            self._next_level = {}
        return obs.span(name, **attributes)

    def on_boundary(self, driver, boundary: LevelBoundary) -> None:
        if not boundary.level or not obs.enabled():
            return
        metrics = driver.metrics
        attributes = {
            "cache_hits": int(metrics.counter("cache.partition_hits").value),
            "cache_misses": int(metrics.counter("cache.partition_misses").value),
        }
        # peek, not get: measuring must not load spilled partitions or
        # touch the disk store's recency order.  An exact run's last
        # level is computed rank-only and never stored; a spilled or
        # unstored partition leaves the level without a measurement.
        store = driver.partitions.store
        work = 0
        for mask in boundary.level:
            partition = store.peek(mask)
            if partition is None:
                break
            work += partition.stripped_size
        else:
            attributes["work_rows"] = work
        self._next_level = attributes
