"""HTTP transport for the discovery service (stdlib only).

A thin routing layer over :class:`~repro.serve.service.DiscoveryService`
on the hardened :class:`~repro.obs.export.HttpServerLifecycle` (the
same restart-safe server the metrics endpoint uses — requests run on
daemon threads of a ``ThreadingHTTPServer``, ``stop()`` joins the
serving thread, ``start()`` after ``stop()`` re-binds the same port).

Routes
------
========  =====================  ==========================================
method    path                   meaning
========  =====================  ==========================================
GET       ``/healthz``           liveness (``ok``)
GET       ``/metrics``           Prometheus exposition, aggregated over
                                 the service and every job registry
GET       ``/stats``             JSON operational snapshot (cache stats,
                                 job counts, service counters)
GET       ``/datasets``          registered datasets
POST      ``/datasets``          register: ``{"name", "csv", "header"?}``
POST      ``/discover``          submit: ``{"dataset", "config"?, "wait"?,
                                 "timeout"?}`` — ``wait`` blocks for the
                                 result, otherwise 202 with the job id
GET       ``/jobs``              job table summaries
GET       ``/jobs/<id>``         one job (result included when done)
GET       ``/jobs/<id>/events``  drain the job's buffered span records
========  =====================  ==========================================

Errors are JSON ``{"error": message}`` with the status carried by
:class:`~repro.exceptions.ServiceError`.  Like the metrics endpoint,
this binds localhost by default and is meant for local/benchmark use,
not the open internet.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import Any

from repro.exceptions import ServiceError
from repro.obs.export import HttpServerLifecycle, prometheus_exposition
from repro.serve.service import DiscoveryService

__all__ = ["ServiceServer"]

_MAX_BODY_BYTES = 64 * 1024 * 1024

_WAIT_DEFAULT_TIMEOUT = 300.0


class ServiceServer:
    """The discovery service bound to an HTTP port."""

    def __init__(
        self,
        service: DiscoveryService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._lifecycle = HttpServerLifecycle(
            self._handler_factory,
            host=host,
            port=port,
            thread_name="repro-serve-http",
        )

    # -- lifecycle ------------------------------------------------------

    @property
    def host(self) -> str:
        """Bound interface."""
        return self._lifecycle.host

    @property
    def port(self) -> int:
        """Bound port (stable across ``stop()``/``start()``)."""
        return self._lifecycle.port

    @property
    def url(self) -> str:
        """Base URL clients talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Serve in a background thread; returns ``self`` for chaining."""
        self._lifecycle.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket; ``start()`` re-binds."""
        self._lifecycle.stop()

    close = stop

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request handling -----------------------------------------------

    def _handler_factory(self) -> type:
        service = self.service

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            # -- plumbing ----------------------------------------------

            def _send(self, status: int, body: bytes, content_type: str) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _send_json(self, status: int, payload: Any) -> None:
                body = json.dumps(payload).encode("utf-8")
                self._send(status, body, "application/json; charset=utf-8")

            def _send_error(self, status: int, message: str) -> None:
                self._send_json(status, {"error": message})

            def _read_json(self) -> dict[str, Any]:
                length = int(self.headers.get("Content-Length", 0) or 0)
                if length <= 0:
                    raise ServiceError("request body required", status=400)
                if length > _MAX_BODY_BYTES:
                    raise ServiceError(
                        f"request body exceeds {_MAX_BODY_BYTES} bytes",
                        status=413,
                    )
                raw = self.rfile.read(length)
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    raise ServiceError(
                        f"request body is not valid JSON: {error}", status=400
                    ) from error
                if not isinstance(payload, dict):
                    raise ServiceError(
                        "request body must be a JSON object", status=400
                    )
                return payload

            def _dispatch(self, handler) -> None:
                try:
                    handler()
                except ServiceError as error:
                    self._send_error(error.status, str(error))
                except BrokenPipeError:
                    pass  # client went away mid-response
                except Exception as error:  # never kill the thread
                    self._send_error(500, f"{type(error).__name__}: {error}")

            def log_message(self, format: str, *args: Any) -> None:
                """Silence per-request stderr logging."""

            # -- routes ------------------------------------------------

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                self._dispatch(self._get)

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                self._dispatch(self._post)

            def _get(self) -> None:
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                if path == "/healthz":
                    self._send(200, b"ok\n", "text/plain; charset=utf-8")
                elif path == "/metrics":
                    body = prometheus_exposition(
                        service.metrics_snapshot()
                    ).encode("utf-8")
                    self._send(
                        200, body, "text/plain; version=0.0.4; charset=utf-8"
                    )
                elif path == "/stats":
                    self._send_json(200, service.stats())
                elif path == "/datasets":
                    self._send_json(
                        200,
                        {
                            "datasets": [
                                record.describe()
                                for record in service.registry.list()
                            ]
                        },
                    )
                elif path == "/jobs":
                    self._send_json(
                        200,
                        {
                            "jobs": [
                                job.snapshot(include_result=False)
                                for job in service.jobs.list()
                            ]
                        },
                    )
                elif path.startswith("/jobs/"):
                    parts = path.split("/")[2:]
                    job = service.jobs.get(parts[0])
                    if len(parts) == 1:
                        self._send_json(200, job.snapshot())
                    elif len(parts) == 2 and parts[1] == "events":
                        events, dropped = job.drain_events()
                        self._send_json(
                            200,
                            {
                                "job": job.id,
                                "status": job.status,
                                "events": events,
                                "dropped": dropped,
                            },
                        )
                    else:
                        raise ServiceError(f"not found: {path}", status=404)
                else:
                    raise ServiceError(f"not found: {path}", status=404)

            def _post(self) -> None:
                path = self.path.split("?", 1)[0].rstrip("/")
                if path == "/datasets":
                    payload = self._read_json()
                    name = payload.get("name")
                    csv_text = payload.get("csv")
                    if not isinstance(name, str) or not isinstance(csv_text, str):
                        raise ServiceError(
                            'POST /datasets requires string fields "name" '
                            'and "csv"',
                            status=400,
                        )
                    summary = service.register_dataset(
                        name,
                        csv_text=csv_text,
                        header=bool(payload.get("header", True)),
                    )
                    self._send_json(200, summary)
                elif path == "/discover":
                    payload = self._read_json()
                    dataset = payload.get("dataset")
                    if not isinstance(dataset, str):
                        raise ServiceError(
                            'POST /discover requires a string "dataset" field',
                            status=400,
                        )
                    config = payload.get("config")
                    if config is not None and not isinstance(config, dict):
                        raise ServiceError(
                            '"config" must be a JSON object', status=400
                        )
                    if payload.get("wait", False):
                        timeout = float(
                            payload.get("timeout", _WAIT_DEFAULT_TIMEOUT)
                        )
                        job = service.discover_and_wait(
                            dataset, config, timeout=timeout
                        )
                        self._send_json(200, job.snapshot())
                    else:
                        job = service.submit_discovery(dataset, config)
                        self._send_json(202, job.snapshot(include_result=False))
                else:
                    raise ServiceError(f"not found: {path}", status=404)

        return Handler
