"""The search loop: one engine every traversal strategy runs under.

A strategy (:class:`~repro.search.strategy.TraversalStrategy`) walks
the lattice in *steps* — one level for the paper's levelwise search
(Section 5: COMPUTE-DEPENDENCIES, PRUNE, GENERATE-NEXT-LEVEL), one
request batch for the DFD walk.  The loop owns what every walk shares:

1. bootstrap π_∅ and the singleton partitions;
2. resume from the first hook offering a
   :class:`~repro.search.hooks.ResumePoint` (restoring results,
   counters and the strategy's snapshot), or begin a fresh walk; a
   resumed *complete* search runs no step;
3. for each step: a fault check, the step's span (the step reclaims
   the partitions its strategy no longer needs), and a
   :class:`~repro.search.hooks.Boundary` where the strategy can be
   resumed from;
4. the final boundary, marked ``complete``.

Boundaries are built only when some hook observes them, and the
strategy's snapshot only when a hook reads it, so a run with no tracer
and no checkpoint builds neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.model.fd import FunctionalDependency
from repro.search.hooks import Boundary, ResumePoint, SearchHooks
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.search.driver import SearchDriver

__all__ = ["run_steps"]


def run_steps(driver: "SearchDriver") -> None:
    """Run ``driver.strategy`` to completion, step by step."""
    strategy = driver.strategy
    driver.partitions.bootstrap(levels=strategy.walks_levels)
    boundary_hooks = [
        hook
        for hook in driver._hooks
        if type(hook).on_boundary is not SearchHooks.on_boundary
    ]
    resumed = next(
        (
            point
            for point in (hook.resume_state(driver) for hook in driver._hooks)
            if point is not None
        ),
        None,
    )
    step = 0
    if resumed is None:
        strategy.begin(driver)
    else:
        step = resumed.step
        _restore(driver, resumed)
    if resumed is None or not resumed.complete:
        while (attributes := strategy.next_step()) is not None:
            faults.check(strategy.fault_point)
            with driver.span(
                strategy.step_span, **strategy.step_attributes(step), **attributes
            ) as span:
                strategy.step(span)
            step += 1
            if boundary_hooks and strategy.boundary_due():
                _notify(driver, boundary_hooks, Boundary(step, False, strategy))
    if boundary_hooks:
        _notify(driver, boundary_hooks, Boundary(step, True, strategy))


def _restore(driver: "SearchDriver", point: ResumePoint) -> None:
    """Re-apply a resume point's results and counters, then hand the
    strategy its snapshot."""
    strategy = driver.strategy
    with driver.span(
        "checkpoint.restore", **strategy.step_attributes(point.step)
    ) as span:
        for lhs, rhs, error in point.dependencies:
            driver.tracker.add_dependency(FunctionalDependency(lhs, rhs, error))
        driver.tracker.keys.extend(point.keys)
        for name, value in point.counters.items():
            driver.metrics.counter(name).inc(value)
        for name, values in point.series.items():
            driver.metrics.series(name).extend(values)
        strategy.restore(driver, point.step, point.snapshot, span)


def _notify(driver: "SearchDriver", hooks, boundary: Boundary) -> None:
    for hook in hooks:
        hook.on_boundary(driver, boundary)
