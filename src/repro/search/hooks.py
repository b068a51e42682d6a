"""The plugin seam of the search driver.

Capabilities that previous iterations wove inline into the discovery
loop — tracing spans, checkpoint save/restore, crash-path spill
preservation — attach through :class:`SearchHooks` instead.  A hook
observes the one search loop (:mod:`repro.search.scheduler`) at four
points:

``span(name, **attributes)``
    Wrap a loop phase in a span-like context manager.  The loop calls
    this for each step's span — ``level`` (with its
    ``compute_dependencies`` / ``prune`` / ``generate_next_level``
    phases) or ``node_batch`` — and for ``checkpoint.restore``; the
    default returns a shared no-op, so an unobserved run pays a
    handful of attribute reads per phase and nothing else.  At most
    one hook provides spans (the tracing hook); every other consumer
    of the stream is a sink on its tracer.
``resume_state(driver)``
    Offer a saved :class:`ResumePoint` before the first step runs.
    The first hook returning one wins; returning ``None`` declines.
``on_boundary(driver, boundary)``
    A step finished at a point the strategy can resume from, or the
    search completed (``boundary.complete``): durable-state plugins
    persist ``boundary.snapshot`` here.
``on_failure(driver)``
    The search is unwinding with an exception; last-chance salvage
    (e.g. keeping spill files for a later resume).

Hooks receive the driver itself and may read its ``tracker``,
``partitions``, ``strategy`` and ``metrics`` — the dependency points
*into* the search core, never out of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.search.driver import SearchDriver
    from repro.search.strategy import TraversalStrategy

__all__ = [
    "NullSpan",
    "NULL_SPAN",
    "Boundary",
    "ResumePoint",
    "SearchHooks",
]


class NullSpan:
    """No-op span: context manager with an attribute sink."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, key: str, value) -> None:
        """Discard the attribute."""


NULL_SPAN = NullSpan()
"""Shared no-op span returned by the default :meth:`SearchHooks.span`."""


@dataclass(frozen=True)
class Boundary:
    """Loop state after a step, as handed to ``on_boundary``."""

    step: int
    """Steps completed so far (the next step's number)."""

    complete: bool
    """True on the final boundary: the search has finished."""

    strategy: "TraversalStrategy" = field(repr=False, compare=False)

    @cached_property
    def snapshot(self) -> dict[str, Any]:
        """The strategy's :meth:`~repro.search.strategy.TraversalStrategy.snapshot`,
        built on first access: a hook that persists nothing pays
        nothing for it."""
        return self.strategy.snapshot()


@dataclass(frozen=True, kw_only=True)
class ResumePoint:
    """Saved search state offered by :meth:`SearchHooks.resume_state`.

    Everything a resumed search needs to continue as if it had never
    stopped: the step count, the strategy's own snapshot (opaque to the
    loop), and the results and deterministic counters recorded so far.
    """

    step: int
    snapshot: dict[str, Any]
    dependencies: list[tuple[int, int, float]] = field(default_factory=list)
    """Dependencies found so far as ``(lhs, rhs, error)``."""
    keys: list[int] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    """Deterministic ``tane.*`` counter values."""
    series: dict[str, list[int]] = field(default_factory=dict)
    """Per-level series (level sizes)."""
    complete: bool = False
    """True when the search had finished: resume runs no step."""


class SearchHooks:
    """Base hook: every method is a no-op; subclass what you observe."""

    def span(self, name: str, **attributes):
        """Return a span-like context manager for a loop phase."""
        return NULL_SPAN

    def resume_state(self, driver: "SearchDriver") -> ResumePoint | None:
        """Offer saved state to resume from, or ``None`` to decline."""
        return None

    def on_boundary(self, driver: "SearchDriver", boundary: Boundary) -> None:
        """A step (or the whole search) completed."""

    def on_failure(self, driver: "SearchDriver") -> None:
        """The search is unwinding with an exception."""


def resolve_span_provider(hooks) -> "callable":
    """The one hook span method, or a no-op provider when none exists.

    Spans form one stream (the tracing hook's), so the driver calls the
    provider directly with no per-span dispatch loop; a second
    span-providing hook is refused rather than silently fanned out.
    """
    providers = [
        hook.span for hook in hooks if type(hook).span is not SearchHooks.span
    ]
    if len(providers) > 1:
        raise ValueError(
            f"{len(providers)} hooks provide spans; at most one may "
            "(attach further consumers as sinks on the tracer)"
        )
    return providers[0] if providers else _null_span


def _null_span(name: str, **attributes) -> NullSpan:
    return NULL_SPAN
