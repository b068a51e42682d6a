"""Checkpoint/resume as a search-driver plugin.

:class:`CheckpointHooks` attaches step-granular checkpointing to a
:class:`~repro.search.driver.SearchDriver` through the
:class:`~repro.search.hooks.SearchHooks` seam, for every traversal
strategy alike:

* ``on_boundary`` — at each boundary the loop emits (after every level
  of the levelwise walk, every few batches of the DFD walk, and once
  more on completion) the step count, the strategy's snapshot, the
  results and the deterministic counters are written atomically
  through the :class:`CheckpointManager`;
* ``resume_state`` — a checkpoint whose fingerprint matches is offered
  to the loop as its :class:`~repro.search.hooks.ResumePoint`; the loop
  restores results and counters and hands the snapshot back to the
  strategy, which re-establishes its partitions (levelwise: spill files
  adopted when present, otherwise recomputed from singletons without
  perturbing counters) or replays its walk (DFD);
* ``on_failure`` — a crashing checkpointed run keeps its spill files:
  they are the partitions resume would otherwise recompute.

The *fingerprint* — identity of (relation, search-shaping config,
traversal strategy) — is computed by the composition root and passed
in; a checkpoint whose fingerprint does not match raises
:class:`~repro.exceptions.CheckpointError` instead of resuming into a
different search.
"""

from __future__ import annotations

from typing import Any

from repro.core.checkpoint import CheckpointManager, CheckpointState
from repro.exceptions import CheckpointError
from repro.obs import trace as obs
from repro.search.hooks import SearchHooks

__all__ = ["CheckpointHooks"]

_CHECKPOINT_COUNTERS = (
    "tane.validity_tests",
    "tane.partition_products",
    "tane.error_computations",
    "tane.g3_bound_rejections",
    "tane.keys_found",
)
_CHECKPOINT_SERIES = ("tane.level_sizes", "tane.pruned_level_sizes")


class CheckpointHooks(SearchHooks):
    """Persist and restore search state at step boundaries."""

    def __init__(
        self,
        manager: CheckpointManager,
        fingerprint: dict[str, Any],
        *,
        resume: bool = False,
    ) -> None:
        self.manager = manager
        self.fingerprint = fingerprint
        self.resume = resume

    def resume_state(self, driver) -> CheckpointState | None:
        if not self.resume:
            return None
        state = self.manager.load()
        if state is not None and state.fingerprint != self.fingerprint:
            mismatched = sorted(
                key
                for key in set(self.fingerprint) | set(state.fingerprint)
                if self.fingerprint.get(key) != state.fingerprint.get(key)
            )
            raise CheckpointError(
                "checkpoint does not match this run "
                f"(differs in: {', '.join(mismatched)}); refusing to resume"
            )
        return state

    def on_boundary(self, driver, boundary) -> None:
        state = CheckpointState(
            fingerprint=self.fingerprint,
            step=boundary.step,
            snapshot=boundary.snapshot,
            dependencies=[
                (fd.lhs, fd.rhs, fd.error) for fd in driver.tracker.dependencies
            ],
            keys=list(driver.tracker.keys),
            counters={
                name: driver.metrics.counter_value(name)
                for name in _CHECKPOINT_COUNTERS
            },
            series={
                name: [int(v) for v in driver.metrics.series_values(name)]
                for name in _CHECKPOINT_SERIES
            },
            complete=boundary.complete,
        )
        with obs.span(
            "checkpoint.save",
            **driver.strategy.step_attributes(boundary.step),
            complete=boundary.complete,
        ):
            self.manager.save(state)

    def on_failure(self, driver) -> None:
        driver.partitions.preserve_spill_files()
