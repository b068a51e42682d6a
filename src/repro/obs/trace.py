"""Span-based tracing with a zero-cost disabled path.

A *span* is a named, timed interval with attributes and a parent —
the levelwise search emits one span per lattice level with child spans
for its three phases and the partition store emits spill/load spans,
so a trace reconstructs *where* a run's time went (which level, which
phase) at a granularity the whole-run totals of
:class:`~repro.core.results.SearchStatistics` cannot.

Design constraints, in order:

1. **Disabled must be free.**  Instrumentation sites call the
   module-level :func:`span` / :func:`set_gauge` helpers, which check the
   module-level active-tracer slot first; with no tracer active they
   return the shared :data:`NULL_SPAN` singleton — no allocation, no
   sink, no timestamps.  Hot per-test counters bypass spans entirely
   (they go to the :class:`~repro.obs.metrics.MetricsRegistry` via
   cached instruments).
2. **Spans are cheap when enabled.**  One object per span, timestamps
   from ``time.perf_counter``, dispatched to sinks twice: an *open*
   record on entry (no ``end`` yet) and a *close* record on exit.
3. **One stream, one thread.**  A run's spans are assembled by the
   thread driving it, and the open/close records are the run's only
   telemetry stream: the live progress line, the service's event
   queue and the profiler's memory notes are sinks on it.

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
    "set_gauge",
    "activated",
]


class Span:
    """One named, timed interval of a trace.

    Spans are context managers handed out by :meth:`Tracer.span`;
    entering stamps the start time, dispatches the *open* record (``end``
    is ``None``) to the tracer's sinks and pushes the span on the
    tracer's stack (making it the parent of spans opened inside it);
    exiting stamps the end time and dispatches the *close* record.
    ``attributes`` carry the per-span payload (``s_l``, byte counts,
    ...): JSON-serializable values.
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
        self.end: float | None = None
        self.attributes = attributes
        self._tracer = tracer

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        return 0.0 if self.end is None else max(0.0, self.end - self.start)

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the span."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        tracer = self._tracer
        if tracer is not None:
            tracer._open(self)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.end = time.perf_counter()
        tracer = self._tracer
        if tracer is not None:
            tracer._pop(self)

    def to_dict(self) -> dict[str, Any]:
        """The span as a JSON-serializable dict (the JSONL schema).

        An open span's record has no ``end`` or ``duration``; the
        attributes are copied, so the record does not change when the
        span later gains attributes.
        """
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "attrs": dict(self.attributes),
        }
        if self.end is not None:
            record["end"] = self.end
            record["duration"] = self.duration
        return record

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
        span.end = payload.get("end")
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
    """Builds a span tree and dispatches its open/close records to sinks.

    Parameters
    ----------
    sinks:
        Objects implementing :class:`~repro.obs.sinks.SpanSink`
        (``record`` / ``flush`` / ``close``); every span reaches every
        sink in order, once when it opens and once when it closes.  A
        sink that raises aborts the traced run.
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

    def _open(self, span: Span) -> None:
        span.parent_id = self._stack[-1].span_id if self._stack else None
        # Dispatch before pushing: a sink raising on the open record
        # aborts the block, whose __exit__ then never pops the span.
        for sink in self.sinks:
            sink.record(span)
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
