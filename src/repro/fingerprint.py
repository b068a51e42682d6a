"""Shared fingerprint helpers: one identity vocabulary for every cache.

Three subsystems key long-lived state by "which relation (and which
configuration) is this?":

* the cross-run partition cache (:mod:`repro.partition.cache`) keys
  entries by relation content plus partition engine;
* the checkpoint subsystem (:mod:`repro.core.checkpoint`) binds a
  checkpoint to the relation and every search-shaping configuration
  field;
* the discovery service (:mod:`repro.serve`) fingerprints registered
  datasets and keys its result cache by ``(dataset fingerprint,
  canonical configuration)``.

Each of these used to assemble its identity string inline in
:mod:`repro.core.tane`; this module is the single home, so the three
cannot drift apart (a service that invalidates partition-cache entries
for a replaced dataset must compute *exactly* the key the partition
manager used to store them).

The content hash itself lives on
:meth:`repro.model.relation.Relation.fingerprint` (it caches the
digest on the relation); everything here composes that hash with the
other identity components.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.model.relation import Relation

__all__ = [
    "PARTITION_ENGINES",
    "partition_cache_key",
    "partition_cache_keys",
    "dataset_fingerprint",
    "search_fingerprint",
    "canonical_config_key",
    "CONFIG_KEY_FIELDS",
]


PARTITION_ENGINES = ("CsrPartition", "PurePartition")
"""Every partition implementation class name that may appear in a
partition-cache key.  Invalidation sweeps (a dataset re-registered
with different bytes) must cover all of them — entries written by one
engine are invisible to lookups naming another."""


def partition_cache_key(relation: "Relation", engine: str | type) -> str:
    """The partition-cache fingerprint for ``relation`` under ``engine``.

    The engine class is part of the key because CSR and pure
    partitions are distinct types and must never satisfy each other's
    lookups.  ``engine`` may be the class itself or its name.
    """
    name = engine if isinstance(engine, str) else engine.__name__
    return f"{relation.fingerprint()}:{name}"


def partition_cache_keys(relation: "Relation") -> list[str]:
    """Every partition-cache key ``relation`` can be stored under.

    The invalidation counterpart of :func:`partition_cache_key`: a
    service dropping a replaced dataset's entries does not know which
    engines past requests used, so it sweeps all of them.
    """
    return [partition_cache_key(relation, engine) for engine in PARTITION_ENGINES]


def dataset_fingerprint(relation: "Relation") -> str:
    """Identity of a *registered dataset*: schema names + content.

    The relation content hash deliberately ignores attribute names
    (partitions only depend on which rows agree), but a dataset
    registry must not treat two uploads as identical when only their
    headers differ — discovered dependencies are rendered with those
    names.  So the dataset fingerprint folds the schema into the
    content hash.
    """
    digest = hashlib.sha1()
    for name in relation.schema.attribute_names:
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(relation.fingerprint().encode("ascii"))
    return digest.hexdigest()


def search_fingerprint(relation: "Relation", config: Any, strategy: Any) -> dict[str, Any]:
    """Identity of (relation, search-shaping config) for a checkpoint.

    ``config`` is duck-typed (a :class:`~repro.core.tane.TaneConfig`);
    ``strategy`` contributes its own fields via
    ``strategy.fingerprint()``.  A checkpoint whose fingerprint does
    not match the resuming run raises
    :class:`~repro.exceptions.CheckpointError` instead of silently
    producing a hybrid result.
    """
    fingerprint: dict[str, Any] = {
        "num_rows": relation.num_rows,
        "attributes": list(relation.schema.attribute_names),
        "epsilon": config.epsilon,
        "measure": config.measure,
        "rfi_samples": config.rfi_samples,
        "rfi_seed": config.rfi_seed,
        "max_lhs_size": config.max_lhs_size,
        "use_rule8": config.use_rule8,
        "use_key_pruning": config.use_key_pruning,
        "use_g3_bounds": config.use_g3_bounds,
    }
    fingerprint.update(strategy.fingerprint())
    return fingerprint


CONFIG_KEY_FIELDS = (
    "epsilon",
    "max_lhs_size",
    "measure",
    "rfi_samples",
    "rfi_seed",
    "use_rule8",
    "use_key_pruning",
    "use_g3_bounds",
    "engine",
    "strategy",
    "top_k",
    "topk_rank",
    "dfd_seed",
)
"""The configuration fields that shape *what a discovery returns*.

Execution knobs (executor, stores, caches, observability
attachments) are deliberately excluded: two requests differing only
there produce identical dependencies, keys, and errors, so a result
cache must serve them the same entry.

``rfi_samples``/``rfi_seed`` *are* included — they change the measured
``rfi`` errors, and a cache entry or checkpoint computed under one
sampling budget must never satisfy a request under another.  They are
part of the key even for measures that ignore them; the cost (a cache
miss when a request varies the rfi knobs under, say, ``g3``) is
accepted for the simplicity of one unconditional field list.

``topk_rank`` and ``dfd_seed`` follow the same rule: the rank mode
changes *which* k dependencies a top-k run returns, and the dfd seed
shapes the walk (and its counters), so results cached under one value
must never satisfy a request under another — even for strategies that
ignore the field."""


def canonical_config_key(config: Any) -> str:
    """A canonical string identity of a result-shaping configuration.

    Reads :data:`CONFIG_KEY_FIELDS` off a duck-typed config object and
    renders them as compact JSON with sorted keys — two
    :class:`~repro.core.tane.TaneConfig` objects that would return the
    same result map to the same key regardless of how the request
    spelled or ordered its fields.
    """
    payload = {field: getattr(config, field) for field in CONFIG_KEY_FIELDS}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
