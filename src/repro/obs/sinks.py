"""Span sinks: where a tracer's records go.

A sink receives every :class:`~repro.obs.trace.Span` of a tracer twice:
an *open* record when the span is entered (``span.end is None``) and a
*close* record when it exits.  Records arrive in stream order, so a
parent opens before its children and closes after them.  The
implementations here:

* :class:`InMemorySink` — keeps the closed spans in a list; tests and
  the benchmark harness read them back directly.
* :class:`JsonlSink` — both records as JSON lines, the schema of
  :meth:`~repro.obs.trace.Span.to_dict`; the format ``repro discover
  --trace out.jsonl`` writes and ``repro trace-report`` reads.
* :class:`LoggingSink` — renders closed spans through stdlib
  ``logging`` so existing log pipelines pick them up
  (``--log-level INFO``).
* :class:`QueueSink` — a drop-oldest buffer of record dicts for a
  polling consumer (the service's ``GET /jobs/<id>/events``).

The live progress line (:class:`~repro.obs.events.ProgressLine`) and
the sampling profiler's per-level memory note are sinks too.  Sinks are
only ever constructed when tracing is explicitly requested; the
disabled path in :mod:`repro.obs.trace` never touches this module.
"""

from __future__ import annotations

import json
import logging
import threading
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Protocol

if TYPE_CHECKING:
    from repro.obs.trace import Span

__all__ = [
    "SpanSink",
    "InMemorySink",
    "JsonlSink",
    "LoggingSink",
    "QueueSink",
    "load_records",
    "load_spans",
]


class SpanSink(Protocol):
    """The interface a tracer drives."""

    def record(self, span: "Span") -> None:
        """Receive one open (``span.end is None``) or close record."""

    def flush(self) -> None:
        """Persist any buffered output."""

    def close(self) -> None:
        """Release resources; the sink receives no further spans."""


class InMemorySink:
    """Collect closed spans in a list (tests, benchmarks, REPL)."""

    def __init__(self) -> None:
        self.spans: list["Span"] = []

    def record(self, span: "Span") -> None:
        """Append a closed span to :attr:`spans`; skip open records."""
        if span.end is not None:
            self.spans.append(span)

    def flush(self) -> None:
        """No buffering; nothing to do."""

    def close(self) -> None:
        """Keep the collected spans readable after close."""


class JsonlSink:
    """Write each open and close record as one JSON line.

    The file is opened eagerly (so a bad path fails at configuration
    time, not mid-run) and buffered by the underlying file object;
    :meth:`flush`/:meth:`close` make the trace durable.  Records
    arriving after :meth:`close` are dropped.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w", encoding="utf-8")

    def record(self, span: "Span") -> None:
        """Serialize the record as one JSON object on its own line."""
        if not self._handle.closed:
            self._handle.write(json.dumps(span.to_dict(), separators=(",", ":")))
            self._handle.write("\n")

    def flush(self) -> None:
        """Flush the file buffer."""
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if not self._handle.closed:
            self._handle.close()


class LoggingSink:
    """Render finished spans through stdlib ``logging``.

    Each span becomes one record on the ``repro.obs`` logger (or a
    caller-supplied one) at the configured level — the integration
    point for applications that already aggregate logs.
    """

    def __init__(
        self,
        level: int = logging.INFO,
        logger: logging.Logger | None = None,
    ) -> None:
        self.level = level
        self.logger = logger if logger is not None else logging.getLogger("repro.obs")

    def record(self, span: "Span") -> None:
        """Log one line per closed span: name, duration, attributes."""
        if span.end is not None and self.logger.isEnabledFor(self.level):
            # Nested payloads (the discover record's profile report)
            # belong in the trace file, not on a log line.
            attrs = " ".join(
                f"{k}={v}" for k, v in span.attributes.items() if not isinstance(v, dict)
            )
            self.logger.log(
                self.level,
                "span %s %.3fms%s",
                span.name,
                span.duration * 1000.0,
                f" {attrs}" if attrs else "",
            )

    def flush(self) -> None:
        """Logging handlers manage their own buffers; nothing to do."""

    def close(self) -> None:
        """The logger outlives the sink; nothing to release."""


class QueueSink:
    """A drop-oldest buffer of record dicts for polling consumers.

    Each record is stored as :meth:`~repro.obs.trace.Span.to_dict`
    taken when it arrives.  ``maxlen`` bounds memory however slow the
    consumer is; :attr:`dropped` counts the records that fell off the
    front, so a consumer can tell a complete stream from a truncated
    one.  Thread-safe: the run's thread records while another drains.
    """

    def __init__(self, maxlen: int = 1024) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self._lock = threading.Lock()
        self._records: deque[dict[str, Any]] = deque()
        self.maxlen = maxlen
        self.dropped = 0

    def record(self, span: "Span") -> None:
        """Append the record, dropping the oldest when full."""
        record = span.to_dict()
        with self._lock:
            if len(self._records) >= self.maxlen:
                self._records.popleft()
                self.dropped += 1
            self._records.append(record)

    def drain(self) -> list[dict[str, Any]]:
        """Remove and return every buffered record (oldest first)."""
        with self._lock:
            records = list(self._records)
            self._records.clear()
        return records

    def flush(self) -> None:
        """Nothing is buffered beyond the queue itself."""

    def close(self) -> None:
        """Keep the buffered records drainable after close."""

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def load_records(path: str | Path) -> list[dict[str, Any]]:
    """Read every record of a JSONL trace file, open and close alike.

    Blank lines are skipped; malformed lines raise ``ValueError`` with
    the offending line number so a truncated trace is diagnosable.
    """
    records: list[dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: not valid JSON: {error}") from error
    return records


def load_spans(path: str | Path) -> list["Span"]:
    """Read the closed spans of a JSONL trace file as :class:`Span` objects.

    Open records are skipped: each span's close record repeats its
    identity and carries the final attributes.
    """
    from repro.obs.trace import Span

    return [Span.from_dict(record) for record in load_records(path) if "end" in record]
