"""Metric exporters: Prometheus text exposition, pull endpoint, JSONL.

The :class:`~repro.obs.metrics.MetricsRegistry` is the numeric source
of truth of a run; this module turns it into the two wire forms a
monitoring stack consumes:

* **Prometheus text exposition** (:func:`prometheus_exposition`):
  every instrument rendered under a stable ``repro_``-prefixed name —
  the scrape contract the future discovery service will expose.
  Written to a file (:func:`write_prometheus`) or served live by
  :class:`MetricsServer`, a stdlib-only HTTP pull endpoint.
* **JSONL snapshots** (:class:`SnapshotWriter`): the registry's
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict appended as
  one timestamped JSON line, either on demand or periodically from a
  background thread — cheap history for `repro export-metrics`.

Metric-name contract
--------------------
Registry names are dotted (``tane.validity_tests``); exposition names
replace every non-alphanumeric character with ``_`` and prefix
``repro_``:

====================  =================================================
registry instrument   exposition series
====================  =================================================
counter ``x.y``       ``repro_x_y_total``
gauge ``x.y``         ``repro_x_y`` and ``repro_x_y_max``
timer ``x.y``         ``repro_x_y_seconds_total`` and ``repro_x_y_count``
series ``x.y``        ``repro_x_y{index="ℓ"}`` (one sample per entry)
====================  =================================================

Caller-supplied labels (e.g. ``{"dataset": "orders"}``) are attached
to every sample.  The golden-format test in ``tests/obs`` pins this
table; renaming a metric is a breaking change to scrapers and must be
deliberate.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "METRIC_PREFIX",
    "sanitize_metric_name",
    "prometheus_exposition",
    "write_prometheus",
    "HttpServerLifecycle",
    "MetricsServer",
    "SnapshotWriter",
    "load_snapshots",
]

METRIC_PREFIX = "repro"
"""Namespace prefix of every exported metric."""

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")
_INVALID_LEAD = re.compile(r"^[^a-zA-Z_]")


def sanitize_metric_name(name: str) -> str:
    """Map a registry name onto a legal Prometheus metric name."""
    cleaned = _INVALID_CHARS.sub("_", name)
    if _INVALID_LEAD.match(cleaned):
        cleaned = "_" + cleaned
    return f"{METRIC_PREFIX}_{cleaned}"


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: dict[str, str] | None, extra: dict[str, str] | None = None) -> str:
    merged: dict[str, str] = {}
    if labels:
        merged.update(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    rendered = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in merged.items()
    )
    return "{" + rendered + "}"


def _format_value(value: int | float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_exposition(
    source: MetricsRegistry | dict[str, Any],
    labels: dict[str, str] | None = None,
) -> str:
    """Render a registry (or its snapshot dict) as text exposition.

    The output follows the Prometheus text format version 0.0.4: a
    ``# TYPE`` line per family, one sample per line, sorted by name so
    successive exports of the same state are byte-identical.
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    lines: list[str] = []

    def family(name: str, kind: str, samples: list[tuple[str, int | float]]) -> None:
        lines.append(f"# TYPE {name} {kind}")
        for label_block, value in samples:
            lines.append(f"{name}{label_block} {_format_value(value)}")

    base = _render_labels(labels)
    for name in sorted(snapshot.get("counters", {})):
        family(
            sanitize_metric_name(name) + "_total",
            "counter",
            [(base, snapshot["counters"][name])],
        )
    for name in sorted(snapshot.get("gauges", {})):
        gauge = snapshot["gauges"][name]
        metric = sanitize_metric_name(name)
        family(metric, "gauge", [(base, gauge["value"])])
        family(metric + "_max", "gauge", [(base, gauge["max"])])
    for name in sorted(snapshot.get("timers", {})):
        timer = snapshot["timers"][name]
        metric = sanitize_metric_name(name)
        family(metric + "_seconds_total", "counter", [(base, timer["seconds"])])
        family(metric + "_count", "counter", [(base, timer["count"])])
    for name in sorted(snapshot.get("series", {})):
        values = snapshot["series"][name]
        family(
            sanitize_metric_name(name),
            "gauge",
            [
                (_render_labels(labels, {"index": str(index + 1)}), value)
                for index, value in enumerate(values)
            ],
        )
    return "\n".join(lines) + "\n"


def write_prometheus(
    path: str | Path,
    source: MetricsRegistry | dict[str, Any],
    labels: dict[str, str] | None = None,
) -> Path:
    """Write the exposition atomically (write-then-rename) to ``path``.

    Atomic replacement matters for the file-scrape pattern (node
    exporter textfile collector): a scraper must never read a
    half-written exposition.
    """
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(prometheus_exposition(source, labels), encoding="utf-8")
    temp.replace(path)
    return path


# ----------------------------------------------------------------------
# Pull endpoint
# ----------------------------------------------------------------------


class _ReusableThreadingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer pinned to the hardened lifecycle defaults.

    ``allow_reuse_address`` is asserted at class level (not inherited
    implicitly) so a server restarted on the port it just released
    never flakes with ``EADDRINUSE`` while the old socket lingers in
    ``TIME_WAIT``; daemon request threads keep a hung client from
    blocking interpreter shutdown.
    """

    allow_reuse_address = True
    daemon_threads = True


class HttpServerLifecycle:
    """Hardened bind/start/stop/restart lifecycle for stdlib HTTP servers.

    The restart path is where naive ``ThreadingHTTPServer`` wrappers
    flake: ``stop()`` must *join* the serving thread before closing
    the socket (or the thread races ``serve_forever`` against a dead
    selector), and ``start()`` after a ``stop()`` must re-bind a fresh
    socket on the remembered port instead of serving from the closed
    one.  Both :class:`MetricsServer` and the discovery service's
    endpoint (:mod:`repro.serve.http`) run on this class.

    ``handler_factory`` is called with no arguments and must return a
    :class:`~http.server.BaseHTTPRequestHandler` subclass; it is
    re-invoked on every (re)bind.  Binding happens in the constructor,
    so :attr:`port` is valid before :meth:`start` — ``port=0`` picks a
    free port once and keeps it across restarts.
    """

    def __init__(
        self,
        handler_factory: Callable[[], type],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        thread_name: str = "repro-http-server",
    ) -> None:
        self._handler_factory = handler_factory
        self._host = host
        self._thread_name = thread_name
        self._thread: threading.Thread | None = None
        self._server: ThreadingHTTPServer | None = None
        self._port = port
        self._bind(port)

    def _bind(self, port: int) -> None:
        self._server = _ReusableThreadingHTTPServer(
            (self._host, port), self._handler_factory()
        )
        self._port = self._server.server_address[1]

    @property
    def host(self) -> str:
        """The bound host/interface."""
        return self._host

    @property
    def port(self) -> int:
        """The bound TCP port (stable across stop/start cycles)."""
        return self._port

    @property
    def running(self) -> bool:
        """True while the serving thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "HttpServerLifecycle":
        """Serve from a daemon thread; re-binds after a ``stop()``."""
        if self.running:
            return self
        if self._server is None:
            # Restart after stop(): the old socket is closed, so bind a
            # fresh one on the same port (allow_reuse_address makes the
            # TIME_WAIT remnant of the previous incarnation harmless).
            self._bind(self._port)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=self._thread_name,
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, join the thread, release the socket (idempotent)."""
        thread, self._thread = self._thread, None
        server, self._server = self._server, None
        if server is None:
            return
        if thread is not None:
            server.shutdown()
            thread.join(timeout=5.0)
        server.server_close()

    close = stop

    def __enter__(self) -> "HttpServerLifecycle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class MetricsServer:
    """A stdlib-only HTTP pull endpoint serving ``GET /metrics``.

    ``source`` is the registry to scrape (or a zero-argument callable
    returning a registry/snapshot, for servers that outlive one run).
    The server binds on construction — ``port=0`` picks a free port,
    exposed as :attr:`port` — and serves from a daemon thread after
    :meth:`start`.  ``stop()`` joins the serving thread and releases
    the socket; a subsequent :meth:`start` re-binds the same port, so
    restart cycles (one per served run in a long-lived process) never
    flake with ``EADDRINUSE``.  Intended for live runs and tests, not
    the open internet: it binds localhost by default and answers only
    ``/metrics`` (and ``/healthz`` with ``ok``).
    """

    def __init__(
        self,
        source: MetricsRegistry | Callable[[], MetricsRegistry | dict[str, Any]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        labels: dict[str, str] | None = None,
    ) -> None:
        resolve = source if callable(source) else (lambda: source)
        labels = dict(labels) if labels else None

        def handler_factory() -> type:
            class Handler(BaseHTTPRequestHandler):
                def do_GET(self) -> None:  # noqa: N802 - http.server API
                    if self.path.split("?", 1)[0] == "/metrics":
                        body = prometheus_exposition(resolve(), labels).encode("utf-8")
                        self.send_response(200)
                        self.send_header(
                            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                        )
                    elif self.path == "/healthz":
                        body = b"ok\n"
                        self.send_response(200)
                        self.send_header("Content-Type", "text/plain; charset=utf-8")
                    else:
                        body = b"not found\n"
                        self.send_response(404)
                        self.send_header("Content-Type", "text/plain; charset=utf-8")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)

                def log_message(self, format: str, *args: Any) -> None:
                    """Silence per-request stderr logging."""

            return Handler

        self._lifecycle = HttpServerLifecycle(
            handler_factory,
            host=host,
            port=port,
            thread_name="repro-metrics-server",
        )

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._lifecycle.port

    @property
    def url(self) -> str:
        """The scrape URL of this endpoint."""
        return f"http://{self._lifecycle.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        """Begin serving from a daemon thread; returns ``self``."""
        self._lifecycle.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self._lifecycle.stop()

    close = stop

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Periodic JSONL snapshots
# ----------------------------------------------------------------------


class SnapshotWriter:
    """Append registry snapshots to a JSONL file, on demand or on a timer.

    Each line is ``{"ts": <unix>, "elapsed": <since-start>, "snapshot":
    {...}}``.  With ``interval`` set, :meth:`start` launches a daemon
    thread writing one line per period; :meth:`stop` writes a final
    line so the file always ends with the run's terminal state.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: str | Path,
        *,
        interval: float | None = None,
    ) -> None:
        if interval is not None and interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.registry = registry
        self.path = Path(path)
        self.interval = interval
        self._handle = self.path.open("w", encoding="utf-8")
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._start_time = time.time()
        self.snapshots_written = 0

    def write_once(self) -> None:
        """Append one snapshot line now."""
        now = time.time()
        line = json.dumps(
            {
                "ts": now,
                "elapsed": now - self._start_time,
                "snapshot": self.registry.snapshot(),
            },
            separators=(",", ":"),
        )
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()
            self.snapshots_written += 1

    def start(self) -> "SnapshotWriter":
        """Begin periodic writes (requires ``interval``); returns self."""
        if self.interval is None:
            raise ValueError("SnapshotWriter started without an interval")
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-metrics-snapshots", daemon=True
            )
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.write_once()

    def stop(self) -> None:
        """Stop the timer, write a terminal snapshot, close the file."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
        self.write_once()
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "SnapshotWriter":
        if self.interval is not None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def load_snapshots(path: str | Path) -> list[dict[str, Any]]:
    """Read a :class:`SnapshotWriter` file back into snapshot records."""
    records: list[dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not a valid snapshot line: {error}"
                ) from error
            if not isinstance(record, dict) or "snapshot" not in record:
                raise ValueError(
                    f"{path}:{line_number}: snapshot line missing 'snapshot' key"
                )
            records.append(record)
    return records
