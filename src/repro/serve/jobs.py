"""Discovery jobs: run-scoped telemetry plus a bounded worker pool.

Every submitted discovery becomes a :class:`Job` carrying its *own*
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.trace.Tracer`.  Run-scoped registries are
the service-side fix for overlapping runs: the TANE driver resets the
``store.*`` gauges at run start, so two jobs sharing one
registry would zero and overwrite each other's gauges mid-flight.
Each job accumulates privately; the service's ``/metrics`` endpoint
aggregates the per-job snapshots with
:func:`repro.obs.metrics.aggregate_snapshots`.

The tracer's one sink is a drop-oldest :class:`~repro.obs.sinks.QueueSink`
of the run's span records, which ``GET /jobs/<id>/events`` drains.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.exceptions import ConfigurationError, ServiceError
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import QueueSink
from repro.obs.trace import Tracer

__all__ = ["Job", "JobManager"]

_STATUSES = ("pending", "running", "done", "failed")


class Job:
    """One discovery request's lifecycle, telemetry, and result."""

    def __init__(
        self,
        job_id: str,
        *,
        dataset: str,
        fingerprint: str,
        config_key: str,
        event_buffer: int = 2048,
    ) -> None:
        self.id = job_id
        self.dataset = dataset
        self.fingerprint = fingerprint
        self.config_key = config_key
        self.status = "pending"
        self.error: str | None = None
        self.result: dict[str, Any] | None = None
        self.cache_hit = False
        self.created_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.metrics = MetricsRegistry()
        self.events = QueueSink(maxlen=event_buffer)
        self.tracer = Tracer(sinks=[self.events], metrics=self.metrics)
        self._done = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle (called from the worker thread) ----------------------

    def mark_running(self) -> None:
        """Transition ``pending`` → ``running`` and stamp the start time."""
        with self._lock:
            self.status = "running"
            self.started_at = time.time()

    def finish(self, result: dict[str, Any], *, cache_hit: bool) -> None:
        """Record the result payload and release every waiter."""
        with self._lock:
            self.result = result
            self.cache_hit = cache_hit
            self.status = "done"
            self.finished_at = time.time()
        self._done.set()

    def fail(self, message: str) -> None:
        """Record a failure message and release every waiter."""
        with self._lock:
            self.error = message
            self.status = "failed"
            self.finished_at = time.time()
        self._done.set()

    # -- consumer side --------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once the job is done or failed."""
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finished (or failed); False on timeout."""
        return self._done.wait(timeout)

    def drain_events(self) -> tuple[list[dict[str, Any]], int]:
        """Remove and return the buffered span records, plus the count
        of records dropped so far."""
        return self.events.drain(), self.events.dropped

    def snapshot(self, *, include_result: bool = True) -> dict[str, Any]:
        """JSON-friendly view of the job for the HTTP API."""
        with self._lock:
            payload: dict[str, Any] = {
                "id": self.id,
                "dataset": self.dataset,
                "fingerprint": self.fingerprint,
                "config": self.config_key,
                "status": self.status,
                "cache_hit": self.cache_hit,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
            }
            if self.error is not None:
                payload["error"] = self.error
            if include_result and self.result is not None:
                payload["result"] = self.result
        return payload


class JobManager:
    """Owns the job table and the worker pool that runs discoveries.

    The pool bounds concurrent discoveries (``workers``); submissions
    beyond it queue inside the executor.  ``max_jobs`` bounds the job
    *table* — finished jobs beyond the limit are forgotten oldest
    first, so a long-lived service does not leak one record per request
    ever served.
    """

    def __init__(self, workers: int = 4, max_jobs: int = 1024) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if max_jobs < 1:
            raise ConfigurationError(f"max_jobs must be >= 1, got {max_jobs}")
        self.max_jobs = max_jobs
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve-job"
        )
        self._closed = False

    def create(self, *, dataset: str, fingerprint: str, config_key: str) -> Job:
        """Allocate a job record (status ``pending``)."""
        with self._lock:
            if self._closed:
                raise ServiceError("service is shutting down", status=503)
            job = Job(
                f"job-{next(self._ids)}",
                dataset=dataset,
                fingerprint=fingerprint,
                config_key=config_key,
            )
            self._jobs[job.id] = job
            self._evict_finished_locked()
        return job

    def submit(self, job: Job, work: Callable[[Job], None]) -> None:
        """Schedule ``work(job)`` on the pool."""
        with self._lock:
            if self._closed:
                raise ServiceError("service is shutting down", status=503)
            self._pool.submit(self._run, job, work)

    @staticmethod
    def _run(job: Job, work: Callable[[Job], None]) -> None:
        try:
            work(job)
        except Exception as error:  # the job records its own failure
            if not job.finished:
                job.fail(f"{type(error).__name__}: {error}")

    def _evict_finished_locked(self) -> None:
        if len(self._jobs) <= self.max_jobs:
            return
        for job_id, job in list(self._jobs.items()):
            if len(self._jobs) <= self.max_jobs:
                break
            if job.finished:
                del self._jobs[job_id]

    def get(self, job_id: str) -> Job:
        """Look a job up by id; unknown ids are a 404 ``ServiceError``."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return job

    def list(self) -> list[Job]:
        """Every job still in the table, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        """Job-table composition by status."""
        with self._lock:
            jobs = list(self._jobs.values())
        counts = {status: 0 for status in _STATUSES}
        for job in jobs:
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    def shutdown(self, wait: bool = True) -> None:
        """Refuse new work and (optionally) drain in-flight jobs."""
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)
