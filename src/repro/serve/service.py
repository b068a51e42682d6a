"""The discovery service core, independent of any transport.

:class:`DiscoveryService` wires the pieces the HTTP layer exposes:

* a :class:`~repro.serve.registry.DatasetRegistry` of named relations;
* a :class:`~repro.serve.cache.ResultCache` of finished result
  payloads keyed ``(dataset fingerprint, canonical config)`` with
  single-flight dedup — N concurrent identical requests run one
  discovery;
* a :class:`~repro.serve.jobs.JobManager` whose jobs each carry a
  private metrics registry and tracer (overlapping runs cannot
  clobber each other's gauges or span streams).

Dataset re-registration with different content invalidates the
result cache's entries for the displaced fingerprint.  Every job
computes its own partitions.

The class is deliberately usable without HTTP — tests drive it
directly, and the HTTP layer (:mod:`repro.serve.http`) stays a thin
translation of requests onto these methods.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any

from repro.core.results import DiscoveryResult
from repro.core.tane import TaneConfig, discover
from repro.datasets.csvio import read_csv_text
from repro.exceptions import ConfigurationError, ReproError, ServiceError
from repro.fingerprint import CONFIG_KEY_FIELDS, canonical_config_key
from repro.model.relation import Relation
from repro.obs.metrics import aggregate_snapshots
from repro.serve.cache import ResultCache
from repro.serve.jobs import Job, JobManager
from repro.serve.registry import DatasetRecord, DatasetRegistry

__all__ = ["DiscoveryService", "config_from_payload", "result_payload"]

_REQUEST_CONFIG_FIELDS = frozenset(CONFIG_KEY_FIELDS)
"""Request-settable configuration fields — exactly the result-shaping
ones.  Execution knobs (executor, stores, observability attachments)
belong to the service, not the request: allowing them would fragment
the result cache without changing any result, and letting a request
attach arbitrary objects over JSON is meaningless anyway."""


def config_from_payload(payload: dict[str, Any] | None) -> TaneConfig:
    """Build the result-shaping :class:`TaneConfig` of a request.

    Unknown fields are rejected (400) rather than ignored so a typo
    (``"epsilonn"``) cannot silently run the wrong discovery; invalid
    values surface :class:`~repro.exceptions.ConfigurationError` as a
    400 with the library's own message.
    """
    payload = dict(payload or {})
    unknown = sorted(set(payload) - _REQUEST_CONFIG_FIELDS)
    if unknown:
        raise ServiceError(
            f"unknown config field(s): {', '.join(unknown)}; "
            f"settable fields: {', '.join(sorted(_REQUEST_CONFIG_FIELDS))}",
            status=400,
        )
    try:
        return TaneConfig(**payload)
    except ConfigurationError as error:
        raise ServiceError(str(error), status=400) from error
    except TypeError as error:
        raise ServiceError(f"malformed config: {error}", status=400) from error


def result_payload(result: DiscoveryResult, record: DatasetRecord) -> dict[str, Any]:
    """Serialize a :class:`DiscoveryResult` into the cacheable wire form."""
    schema = result.schema
    names = schema.attribute_names
    return {
        "dataset": record.name,
        "fingerprint": record.fingerprint,
        "epsilon": result.epsilon,
        "measure": result.measure,
        "dependencies": [
            {
                "lhs": list(schema.names_of(fd.lhs)),
                "rhs": names[fd.rhs],
                "error": fd.error,
                "display": fd.format(schema, measure=result.measure),
            }
            for fd in result.sorted_dependencies()
        ],
        "keys": [list(key) for key in result.key_names()],
        "statistics": {
            "elapsed_seconds": result.statistics.elapsed_seconds,
            "validity_tests": result.statistics.validity_tests,
            "partition_products": result.statistics.partition_products,
            "level_sizes": list(result.statistics.level_sizes),
            "keys_found": result.statistics.keys_found,
        },
    }


class DiscoveryService:
    """Registry + result cache + jobs behind one thread-safe facade."""

    def __init__(
        self,
        *,
        workers: int = 4,
        result_cache_entries: int = 128,
        max_jobs: int = 1024,
    ) -> None:
        self.registry = DatasetRegistry()
        self.results = ResultCache(max_entries=result_cache_entries)
        self.jobs = JobManager(workers=workers, max_jobs=max_jobs)
        # Service-level counters live in their own registry, guarded by
        # a lock because handler threads increment concurrently
        # (Counter.inc is a plain += — cheap, but not atomic).
        self._metrics_lock = threading.Lock()
        from repro.obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()

    def _count(self, name: str, amount: int = 1) -> None:
        with self._metrics_lock:
            self.metrics.counter(name).inc(amount)

    # -- datasets -------------------------------------------------------

    def register_dataset(
        self,
        name: str,
        *,
        csv_text: str | None = None,
        relation: Relation | None = None,
        header: bool = True,
    ) -> dict[str, Any]:
        """Register (or replace) a dataset; invalidate on content change.

        Accepts either inline CSV content or an already-built relation.
        When the name previously held different content, the displaced
        fingerprint's result-cache entries are dropped before the new
        record becomes visible to discovery submissions.
        """
        if (csv_text is None) == (relation is None):
            raise ServiceError(
                "provide exactly one of csv_text or relation", status=400
            )
        if relation is None:
            try:
                relation = read_csv_text(csv_text, header=header, source=name)
            except ReproError as error:
                raise ServiceError(str(error), status=400) from error
        record, replaced = self.registry.register(name, relation)
        results_dropped = 0
        if replaced is not None:
            results_dropped = self.results.invalidate(replaced.fingerprint)
            self._count("service.datasets_replaced")
        self._count("service.datasets_registered")
        summary = record.describe()
        summary["replaced"] = replaced is not None
        summary["invalidated"] = {"result_entries": results_dropped}
        return summary

    # -- discovery ------------------------------------------------------

    def submit_discovery(
        self, dataset: str, config_payload: dict[str, Any] | None = None
    ) -> Job:
        """Queue a discovery job for a registered dataset."""
        record = self.registry.get(dataset)
        config = config_from_payload(config_payload)
        config_key = canonical_config_key(config)
        key = (record.fingerprint, config_key)
        job = self.jobs.create(
            dataset=record.name,
            fingerprint=record.fingerprint,
            config_key=config_key,
        )
        self._count("service.requests")

        def work(job: Job) -> None:
            job.mark_running()

            def compute() -> dict[str, Any]:
                self._count("service.discoveries_executed")
                # The job owns its registry and tracer.
                run_config = replace(config, metrics=job.metrics, tracer=job.tracer)
                result = discover(record.relation, run_config)
                return result_payload(result, record)

            try:
                payload, hit = self.results.get_or_compute(key, compute)
            except Exception as error:
                self._count("service.discoveries_failed")
                job.fail(f"{type(error).__name__}: {error}")
                return
            if hit:
                self._count("service.result_cache_hits")
            job.finish(payload, cache_hit=hit)

        self.jobs.submit(job, work)
        return job

    def discover_and_wait(
        self,
        dataset: str,
        config_payload: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> Job:
        """Submit and block until the job finished (or timed out)."""
        job = self.submit_discovery(dataset, config_payload)
        if not job.wait(timeout):
            raise ServiceError(
                f"job {job.id} did not finish within {timeout}s", status=504
            )
        return job

    # -- telemetry ------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        """Service counters + every job's registry, aggregated."""
        with self._metrics_lock:
            snapshots = [self.metrics.snapshot()]
        snapshots.extend(job.metrics.snapshot() for job in self.jobs.list())
        return aggregate_snapshots(snapshots)

    def stats(self) -> dict[str, Any]:
        """Operational snapshot for ``GET /stats`` and the bench driver."""
        with self._metrics_lock:
            counters = dict(self.metrics.snapshot()["counters"])
        return {
            "datasets": len(self.registry),
            "jobs": self.jobs.counts(),
            "result_cache": self.results.stats(),
            "counters": counters,
        }

    def close(self, wait: bool = True) -> None:
        """Refuse new submissions and drain the worker pool."""
        self.jobs.shutdown(wait=wait)
