"""The search driver's observability plugin.

:class:`TracingHooks` is the bridge between the search core's span
seam (:meth:`repro.search.hooks.SearchHooks.span`) and the
module-level tracer of :mod:`repro.obs.trace`: every driver phase span
is forwarded to :func:`repro.obs.trace.span`, so a traced run produces
the ``level`` / phase / ``node_batch`` spans of the one telemetry
stream.

At each boundary of a levelwise run it also measures the next level's row-work
(``Σ‖π̂‖``, the summed stripped sizes of partitions that were just
materialized — one sum over the level's block, or a ``stripped_size``
read per partition, not a recomputation); it goes on that level's open
record, where the ``--progress`` line's ETA model reads it.  The composition
root attaches this hook only to traced runs, and it does nothing while
no tracer is active, so an untraced run computes nothing for it.

This module depends on :mod:`repro.search`; the search core never
imports :mod:`repro.obs` (enforced by ``make layers``).
"""

from __future__ import annotations

from repro.obs import trace as obs
from repro.search.hooks import Boundary, SearchHooks

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

    def on_boundary(self, driver, boundary: Boundary) -> None:
        if (
            boundary.complete
            or driver.strategy.step_span != "level"
            or not obs.enabled()
        ):
            return
        level = boundary.snapshot["level"]
        if not level:
            return
        # Resident partitions only: measuring must not load spilled
        # partitions or touch the disk store's recency order.  An exact
        # run's last level is computed rank-only; a spilled or
        # rank-only level goes without a measurement.
        work = driver.partitions.stripped_rows(level)
        self._next_level = {} if work is None else {"work_rows": work}
