"""Thin stdlib client for the discovery service's HTTP API.

Wraps ``urllib`` so benchmark drivers, the smoke gate, and scripts
talk to :mod:`repro.serve.http` without hand-rolling requests.  HTTP
errors come back as :class:`~repro.exceptions.ServiceError` carrying
the server's status and message, mirroring what the server raised.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any

from repro.exceptions import ServiceError

__all__ = ["ServiceClient"]


class ServiceClient:
    """Client for one service base URL (e.g. ``http://127.0.0.1:8321``)."""

    def __init__(self, base_url: str, *, timeout: float = 300.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> tuple[int, bytes]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            raw = error.read()
            try:
                message = json.loads(raw.decode("utf-8")).get("error", "")
            except (UnicodeDecodeError, json.JSONDecodeError):
                message = raw.decode("utf-8", errors="replace").strip()
            raise ServiceError(
                message or f"HTTP {error.code}", status=error.code
            ) from error
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach {self.base_url}: {error.reason}", status=503
            ) from error

    def _json(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        _, raw = self._request(method, path, payload)
        return json.loads(raw.decode("utf-8"))

    # -- API ------------------------------------------------------------

    def healthy(self) -> bool:
        """True when ``GET /healthz`` answers 200."""
        try:
            status, _ = self._request("GET", "/healthz")
        except ServiceError:
            return False
        return status == 200

    def register_dataset(
        self, name: str, csv_text: str, *, header: bool = True
    ) -> dict[str, Any]:
        """Upload CSV content under ``name``; returns the registration summary."""
        return self._json(
            "POST", "/datasets", {"name": name, "csv": csv_text, "header": header}
        )

    def datasets(self) -> list[dict[str, Any]]:
        """Registered datasets."""
        return self._json("GET", "/datasets")["datasets"]

    def discover(
        self,
        dataset: str,
        config: dict[str, Any] | None = None,
        *,
        wait: bool = True,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Run (or submit) a discovery; returns the job snapshot.

        With ``wait=True`` (default) the snapshot includes ``result``;
        otherwise poll :meth:`job` with the returned ``id``.
        """
        payload: dict[str, Any] = {"dataset": dataset, "wait": wait}
        if config is not None:
            payload["config"] = config
        if timeout is not None:
            payload["timeout"] = timeout
        return self._json("POST", "/discover", payload)

    def job(self, job_id: str) -> dict[str, Any]:
        """One job's snapshot (``result`` included once done)."""
        return self._json("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict[str, Any]]:
        """Every job the service still remembers."""
        return self._json("GET", "/jobs")["jobs"]

    def job_events(self, job_id: str) -> dict[str, Any]:
        """Drain a job's buffered span records (and the dropped count)."""
        return self._json("GET", f"/jobs/{job_id}/events")

    def stats(self) -> dict[str, Any]:
        """The service's operational snapshot (cache stats, job counts)."""
        return self._json("GET", "/stats")

    def metrics_text(self) -> str:
        """The aggregated Prometheus exposition."""
        _, raw = self._request("GET", "/metrics")
        return raw.decode("utf-8")
