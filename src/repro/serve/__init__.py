"""repro.serve — the dependency-discovery service.

A stdlib-only HTTP service around the library: register datasets,
submit discovery jobs, stream their progress, and share results and
partitions across requests.

Layers (each usable without the one above):

* :mod:`repro.serve.registry` — named datasets fingerprinted by
  schema + content (:func:`repro.fingerprint.dataset_fingerprint`);
* :mod:`repro.serve.cache` — the result cache keyed
  ``(fingerprint, canonical config)`` with single-flight dedup;
* :mod:`repro.serve.jobs` — discovery jobs with run-scoped metrics
  registries and tracers on a bounded worker pool;
* :mod:`repro.serve.service` — :class:`DiscoveryService`, the
  transport-free core wiring registry + caches + jobs;
* :mod:`repro.serve.http` — :class:`ServiceServer`, the HTTP routes
  on the hardened restartable server lifecycle;
* :mod:`repro.serve.client` — :class:`ServiceClient`, the thin
  ``urllib`` client.

Start one from the command line with ``repro serve``; see
``docs/SERVICE.md`` for the API tour.
"""

from repro.serve.cache import ResultCache
from repro.serve.client import ServiceClient
from repro.serve.http import ServiceServer
from repro.serve.jobs import Job, JobManager
from repro.serve.registry import DatasetRecord, DatasetRegistry
from repro.serve.service import DiscoveryService

__all__ = [
    "DatasetRecord",
    "DatasetRegistry",
    "ResultCache",
    "Job",
    "JobManager",
    "DiscoveryService",
    "ServiceServer",
    "ServiceClient",
]
