"""The discovery service's dataset registry.

A dataset is a *named* relation: clients upload CSV content under a
name and later request discovery by that name.  The registry maps each
name to its current :class:`DatasetRecord`, whose ``fingerprint``
(:func:`repro.fingerprint.dataset_fingerprint` — schema names folded
into the relation content hash) is what every downstream cache keys
on.

Re-registering a name with *identical* content is idempotent — same
fingerprint, same record, nothing to invalidate.  Re-registering with
*different* content replaces the record and returns the displaced one,
so the service can sweep the result cache for the stale fingerprint (see
:meth:`repro.serve.service.DiscoveryService.register_dataset`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.exceptions import ServiceError
from repro.fingerprint import dataset_fingerprint
from repro.model.relation import Relation

__all__ = ["DatasetRecord", "DatasetRegistry"]


@dataclass(frozen=True)
class DatasetRecord:
    """One registered dataset: the relation plus its identity."""

    name: str
    relation: Relation
    fingerprint: str
    registered_at: float = field(default=0.0, compare=False)

    def describe(self) -> dict:
        """JSON-friendly summary for listing endpoints."""
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "rows": self.relation.num_rows,
            "attributes": self.relation.num_attributes,
            "attribute_names": list(self.relation.schema.attribute_names),
            "registered_at": self.registered_at,
        }


class DatasetRegistry:
    """Thread-safe name → :class:`DatasetRecord` map."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: dict[str, DatasetRecord] = {}

    def register(
        self, name: str, relation: Relation
    ) -> tuple[DatasetRecord, DatasetRecord | None]:
        """Register (or replace) ``name``; returns ``(record, replaced)``.

        ``replaced`` is the displaced record when the name previously
        held *different* content — the caller must invalidate caches
        keyed by its fingerprint.  Re-uploading identical content
        returns the existing record and ``replaced=None``.
        """
        if not name or not name.strip():
            raise ServiceError("dataset name must be non-empty", status=400)
        fingerprint = dataset_fingerprint(relation)
        with self._lock:
            current = self._records.get(name)
            if current is not None and current.fingerprint == fingerprint:
                return current, None
            record = DatasetRecord(
                name=name,
                relation=relation,
                fingerprint=fingerprint,
                registered_at=time.time(),
            )
            self._records[name] = record
            return record, current

    def get(self, name: str) -> DatasetRecord:
        """The record for ``name``; 404-flavoured error when absent."""
        with self._lock:
            record = self._records.get(name)
        if record is None:
            raise ServiceError(f"unknown dataset {name!r}", status=404)
        return record

    def list(self) -> list[DatasetRecord]:
        """Every registered record, sorted by name."""
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
