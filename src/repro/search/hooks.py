"""The plugin seam of the search driver.

Capabilities that previous iterations wove inline into the discovery
loop — tracing spans, checkpoint save/restore, crash-path spill
preservation — attach through :class:`SearchHooks` instead.  A hook
observes the driver at four points:

``span(name, **attributes)``
    Wrap a loop phase in a span-like context manager.  The level
    scheduler calls this for the ``level`` / ``compute_dependencies``
    / ``prune`` / ``generate_next_level`` spans and the node engine
    for ``node_batch`` spans; the default returns a shared no-op, so an
    unobserved run pays a handful of attribute reads per phase and
    nothing else.  At most one hook provides spans (the tracing hook);
    every other consumer of the stream is a sink on its tracer.
``resume_state(driver)`` / ``resume_node_state(driver)``
    Offer saved loop state before the first level (or node batch)
    runs.  The first hook returning a :class:`ResumePoint` /
    :class:`NodeResumePoint` wins; returning ``None`` declines.
``on_boundary(driver, boundary)`` / ``on_node_boundary(driver, boundary)``
    A level (or a node-engine batch) finished, or the search completed
    (``boundary.complete``): durable-state plugins persist here.
    Level-mode runs only ever see :class:`LevelBoundary`; node-mode
    runs only :class:`NodeBoundary` — a hook observes whichever side
    it cares about and ignores the other.
``on_failure(driver)``
    The search is unwinding with an exception; last-chance salvage
    (e.g. keeping spill files for a later resume).

Hooks receive the driver itself and may read its ``tracker``,
``partitions`` and ``metrics`` — the dependency points *into* the
search core, never out of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.search.driver import SearchDriver

__all__ = [
    "NullSpan",
    "NULL_SPAN",
    "LevelBoundary",
    "NodeBoundary",
    "ResumePoint",
    "NodeResumePoint",
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
class LevelBoundary:
    """Loop state at a level boundary, as handed to ``on_boundary``.

    The fields are exactly what a resumed search needs to continue:
    the next level to run, the completed level's masks (still resident
    for the next level's superkey checks), and its rhs+ sets.
    """

    level_number: int
    """Number of the *next* level (the one about to run)."""

    level: list
    """Masks of the next level (empty when the search is done)."""

    previous_level_masks: list
    """Masks of the just-completed level."""

    cplus_prev: dict
    """rhs+ candidate sets of the just-completed level."""

    complete: bool
    """True on the final boundary: the search has finished."""


@dataclass(frozen=True)
class ResumePoint:
    """Saved loop state offered by :meth:`SearchHooks.resume_state`."""

    level_number: int
    level: list
    previous_level_masks: list
    cplus_prev: dict


@dataclass(frozen=True)
class NodeBoundary:
    """Node-engine state at a persistence point, as handed to
    ``on_node_boundary``.

    Non-monotone walks have no level numbers; the resumable unit is
    the strategy's own serialized state (visited-set / frontier), an
    opaque JSON-able document the engine neither reads nor interprets.
    """

    batch_number: int
    """Number of completed scheduling rounds (monotone, for spans)."""

    state: dict = field(default_factory=dict)
    """The strategy's :meth:`NodeStrategy.snapshot` document."""

    complete: bool = False
    """True on the final boundary: the walk has finished."""


@dataclass(frozen=True)
class NodeResumePoint:
    """Saved node-walk state offered by ``resume_node_state``."""

    batch_number: int
    state: dict


class SearchHooks:
    """Base hook: every method is a no-op; subclass what you observe."""

    def span(self, name: str, **attributes):
        """Return a span-like context manager for a loop phase."""
        return NULL_SPAN

    def resume_state(self, driver: "SearchDriver") -> ResumePoint | None:
        """Offer saved state to resume from, or ``None`` to decline."""
        return None

    def resume_node_state(self, driver: "SearchDriver") -> NodeResumePoint | None:
        """Offer saved node-walk state to resume from, or ``None``."""
        return None

    def on_boundary(self, driver: "SearchDriver", boundary: LevelBoundary) -> None:
        """A level (or the whole search) completed."""

    def on_node_boundary(self, driver: "SearchDriver", boundary: "NodeBoundary") -> None:
        """A node-engine batch (or the whole walk) completed."""

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
