"""Span-based tracing with a zero-cost disabled path.

A *span* is a named, timed interval with attributes and a parent —
the levelwise search emits one span per lattice level with child spans
for its three phases and the partition store emits spill/load spans,
so a trace reconstructs *where* a run's time went (which level, which
phase) at a granularity the whole-run totals of
:class:`~repro.core.results.SearchStatistics` cannot.

Design constraints, in order:

1. **Disabled must be free.**  Instrumentation sites call the
   module-level :func:`span` / :func:`emit` helpers, which check the
   module-level active-tracer slot first; with no tracer active they
   return the shared :data:`NULL_SPAN` singleton — no allocation, no
   sink, no timestamps.  Hot per-test counters bypass spans entirely
   (they go to the :class:`~repro.obs.metrics.MetricsRegistry` via
   cached instruments).
2. **Spans are cheap when enabled.**  One object per span, timestamps
   from ``time.perf_counter``, dispatched to sinks at exit.
3. **Single-process trace assembly.**  A run's spans are assembled by
   the thread driving it; work timed elsewhere is folded in as a
   synthesized span via :func:`Tracer.emit`.

Activation is scoped: the TANE driver wraps a run in
:func:`activated`, which saves and restores the previous tracer, so
nested untraced runs (e.g. the two discoveries inside
``analysis.profile``) behave predictably.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from typing import Any

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "enabled",
    "active_tracer",
    "span",
    "emit",
    "set_gauge",
    "activated",
]


class Span:
    """One named, timed interval of a trace.

    Spans are context managers handed out by :meth:`Tracer.span`;
    entering stamps the start time and pushes the span on the tracer's
    stack (making it the parent of spans opened inside it), exiting
    stamps the end time and dispatches the finished span to the
    tracer's sinks.  ``attributes`` carry the per-span payload
    (``s_l``, byte counts, pids, ...): JSON-serializable scalars only.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        attributes: dict[str, Any],
        tracer: "Tracer | None" = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start: float = 0.0
        self.end: float = 0.0
        self.attributes = attributes
        self._tracer = tracer

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        return max(0.0, self.end - self.start)

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the span."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.end = time.perf_counter()
        tracer = self._tracer
        if tracer is not None:
            tracer._pop(self)

    def to_dict(self) -> dict[str, Any]:
        """The span as a JSON-serializable dict (the JSONL schema)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attributes,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        """Reconstruct a span from :meth:`to_dict` output (JSONL line)."""
        span = cls(
            name=payload["name"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            attributes=dict(payload.get("attrs", {})),
        )
        span.start = payload.get("start", 0.0)
        span.end = payload.get("end", 0.0)
        return span

    def __repr__(self) -> str:
        parent = f" parent={self.parent_id}" if self.parent_id is not None else ""
        return (
            f"<Span {self.name!r} id={self.span_id}{parent} "
            f"{self.duration * 1000:.3f}ms {self.attributes}>"
        )


class NullSpan:
    """The shared no-op span returned while tracing is disabled.

    Supports the same ``with``/``set`` surface as :class:`Span` so
    instrumentation sites need no conditionals; every operation is a
    no-op and the singleton is reused, so the disabled path allocates
    nothing.
    """

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        """Discard the attribute (tracing is disabled)."""

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        return None

    def __repr__(self) -> str:
        return "<NullSpan>"


NULL_SPAN = NullSpan()
"""Module-wide singleton no-op span (the entire disabled fast path)."""


class Tracer:
    """Builds a span tree and dispatches finished spans to sinks.

    Parameters
    ----------
    sinks:
        Objects implementing :class:`~repro.obs.sinks.SpanSink`
        (``record`` / ``flush`` / ``close``); finished spans are pushed
        to every sink in order.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` the traced run
        writes its counters into; created on demand when omitted.  The
        TANE driver adopts this registry, so a traced run's counters
        and its spans end up in the same place.

    A tracer instance describes **one run**: span ids restart from 0
    and counters accumulate, so reusing a tracer across runs
    concatenates their telemetry.
    """

    def __init__(
        self,
        sinks: Sequence[Any] = (),
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.sinks = list(sinks)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self.span_count = 0

    # -- span lifecycle (called by Span.__enter__/__exit__) -------------

    def _push(self, span: Span) -> None:
        span.parent_id = self._stack[-1].span_id if self._stack else None
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # out-of-order exit; drop up to and including the span
            try:
                index = len(self._stack) - 1 - self._stack[::-1].index(span)
            except ValueError:
                index = None
            if index is not None:
                del self._stack[index:]
        self._dispatch(span)

    def _dispatch(self, span: Span) -> None:
        self.span_count += 1
        for sink in self.sinks:
            sink.record(span)

    # -- public API -----------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Span:
        """Create an (unstarted) child span of the currently open span.

        Use as a context manager::

            with tracer.span("level", level=3) as lvl:
                lvl.set("s_l", 128)
        """
        return Span(name, next(self._ids), None, attributes, tracer=self)

    def emit(self, name: str, seconds: float, **attributes: Any) -> Span:
        """Record an already-completed interval as a span.

        Used for work measured elsewhere: ``emit`` synthesizes a span
        that ends *now* and lasted ``seconds``, parented to the
        currently open span.
        """
        span = Span(name, next(self._ids), None, attributes, tracer=None)
        span.end = time.perf_counter()
        span.start = span.end - max(0.0, seconds)
        span.parent_id = self._stack[-1].span_id if self._stack else None
        self._dispatch(span)
        return span

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def flush(self) -> None:
        """Flush every sink (e.g. JSONL file buffers)."""
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        """Flush and close every sink."""
        for sink in self.sinks:
            sink.close()

    def __repr__(self) -> str:
        return f"<Tracer {self.span_count} spans, {len(self.sinks)} sinks>"


# ----------------------------------------------------------------------
# Module-level activation — the enabled flag instrumentation sites check.
# ----------------------------------------------------------------------

_ACTIVE = threading.local()
"""Thread-local activation slot.

Overlapping discovery runs on separate threads (the service's job
pool) must not observe each other's tracer: with a process-global
slot, a job's store spans and gauge writes would land on whichever
tracer activated last, and the save/restore pairs interleave so a
finished job could reinstate its dead tracer for a still-running one.
Thread-local activation scopes each run's instrumentation to the
thread driving it — spans are assembled single-threaded by design
(see constraint 3 above), so no instrumentation site needs to see an
activation made by a different thread."""


def enabled() -> bool:
    """True while a tracer is activated on this thread."""
    return getattr(_ACTIVE, "tracer", None) is not None


def active_tracer() -> Tracer | None:
    """The tracer activated on the current thread, if any."""
    return getattr(_ACTIVE, "tracer", None)


def span(name: str, **attributes: Any) -> Span | NullSpan:
    """Open a span on the active tracer — or the no-op singleton.

    The instrumentation entry point: when no tracer is active this
    returns :data:`NULL_SPAN` without allocating anything, so
    ``with span("store.spill") as s: ...`` costs one thread-local read
    and one call on the disabled path.
    """
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attributes)


def emit(name: str, seconds: float, **attributes: Any) -> None:
    """Record a completed interval on the active tracer (no-op if none)."""
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is not None:
        tracer.emit(name, seconds, **attributes)


def set_gauge(name: str, value: int | float) -> None:
    """Write a gauge on the active tracer's registry (no-op if none)."""
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is not None:
        tracer.metrics.gauge(name).set(value)


@contextmanager
def activated(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` this thread's active tracer for the block.

    Saves and restores the previously active tracer, so traced regions
    nest correctly and an exception cannot leave a stale tracer
    activated.
    """
    previous = getattr(_ACTIVE, "tracer", None)
    _ACTIVE.tracer = tracer
    try:
        yield tracer
    finally:
        _ACTIVE.tracer = previous
