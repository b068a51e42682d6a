"""Shared fingerprint helpers: one identity vocabulary for every cache.

Two subsystems key long-lived state by "which relation (and which
configuration) is this?":

* the checkpoint subsystem (:mod:`repro.core.checkpoint`) binds a
  checkpoint to the relation and every search-shaping configuration
  field;
* the discovery service (:mod:`repro.serve`) fingerprints registered
  datasets and keys its result cache by ``(dataset fingerprint,
  canonical configuration)``.

Both used to assemble their identity strings inline in
:mod:`repro.core.tane`; this module is their single home.

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
    "dataset_fingerprint",
    "search_fingerprint",
    "canonical_config_key",
    "CONFIG_KEY_FIELDS",
]


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

Execution knobs (executor, stores, observability attachments) are
deliberately excluded: two requests differing only there produce
identical dependencies, keys, and errors, so a result cache must serve
them the same entry.

``topk_rank`` and ``dfd_seed`` *are* included: the rank mode changes
*which* k dependencies a top-k run returns, and the dfd seed shapes
the walk (and its counters), so results cached under one value must
never satisfy a request under another.  They are part of the key even
for strategies that ignore them; the cost (a cache miss when a request
varies them under, say, levelwise) is accepted for the simplicity of
one unconditional field list."""


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
