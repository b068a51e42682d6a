"""Step-granular checkpointing of the search.

A search pauses between steps — levels of the levelwise walk, request
batches of the DFD walk — and the state at such a boundary is small
and self-contained: the step count, the strategy's own snapshot (the
next level's masks and the previous level's ``C+`` map, or the DFD
walk's verdict cache), the dependencies and keys found so far, and the
deterministic counters.  The *partitions* are large but
reconstructible (from singleton partitions, Lemma 3, or from the disk
store's spill files).  A checkpoint therefore serializes only that
state: one JSON document of a single shape for every strategy, written
atomically (temp file + ``fsync`` + ``os.replace``) at each boundary.
A crashed or killed run resumes from the last boundary and produces
dependencies, keys, and counters identical to an uninterrupted run.

A checkpoint is bound to its run by a *fingerprint* of the relation
(row count, attribute names), of every configuration field that shapes
the search and of the traversal strategy — built by
:func:`repro.fingerprint.search_fingerprint`, the shared identity
module all caches key on; resuming with a different relation, config
or strategy raises :class:`~repro.exceptions.CheckpointError` instead
of silently producing a hybrid result.

The final checkpoint of a successful run is marked ``complete``, so
resuming a finished run runs no step and simply returns the recorded
results.  Documents of earlier format versions are refused.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.exceptions import CheckpointError
from repro.search.hooks import ResumePoint
from repro.testing import faults

_FORMAT_VERSION = 2
_CHECKPOINT_NAME = "checkpoint.json"
_FIELDS = (
    "version",
    "fingerprint",
    "step",
    "snapshot",
    "dependencies",
    "keys",
    "counters",
    "series",
    "complete",
)

__all__ = ["CheckpointState", "CheckpointManager", "load_checkpoint"]


@dataclass(frozen=True, kw_only=True)
class CheckpointState(ResumePoint):
    """A resume point bound to the run it belongs to."""

    fingerprint: dict[str, Any]
    """Relation, configuration and strategy identity."""

    def to_payload(self) -> dict[str, Any]:
        """The JSON document written to disk."""
        return {
            "version": _FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "step": self.step,
            "snapshot": self.snapshot,
            "dependencies": [[lhs, rhs, error] for lhs, rhs, error in self.dependencies],
            "keys": self.keys,
            "counters": self.counters,
            "series": self.series,
            "complete": self.complete,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CheckpointState":
        """Rebuild the state from a parsed checkpoint document."""
        version = payload.get("version")
        if version != _FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {_FORMAT_VERSION})"
            )
        unknown = sorted(set(payload) - set(_FIELDS))
        if unknown:
            raise CheckpointError(
                f"unknown checkpoint fields {', '.join(unknown)} "
                f"(not a version {_FORMAT_VERSION} document)"
            )
        try:
            snapshot = payload["snapshot"]
            if not isinstance(snapshot, dict):
                raise TypeError("snapshot must be a JSON object")
            return cls(
                fingerprint=dict(payload["fingerprint"]),
                step=int(payload["step"]),
                snapshot=snapshot,
                dependencies=[
                    (int(lhs), int(rhs), float(error))
                    for lhs, rhs, error in payload["dependencies"]
                ],
                keys=[int(mask) for mask in payload["keys"]],
                counters={str(k): v for k, v in payload["counters"].items()},
                series={
                    str(k): [int(v) for v in values]
                    for k, values in payload["series"].items()
                },
                complete=bool(payload["complete"]),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise CheckpointError(f"malformed checkpoint payload: {error}") from error


class CheckpointManager:
    """Owns one checkpoint directory: atomic saves, validated loads.

    Parameters
    ----------
    directory:
        Where ``checkpoint.json`` (and the disk store's adopted spill
        directory, see :attr:`spill_directory`) live.  Created if
        absent.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / _CHECKPOINT_NAME
        self.saves = 0

    @property
    def spill_directory(self) -> Path:
        """Spill directory checkpointed disk stores share with resume."""
        path = self.directory / "spill"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def save(self, state: CheckpointState) -> None:
        """Write the state atomically (write-then-rename, fsynced).

        A crash at any instant leaves either the previous checkpoint
        or the new one — never a torn file.
        """
        payload = json.dumps(state.to_payload(), separators=(",", ":"))
        descriptor, tmp_name = tempfile.mkstemp(
            prefix=_CHECKPOINT_NAME + ".", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            faults.check("checkpoint.save")
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.saves += 1

    def load(self) -> CheckpointState | None:
        """Read and validate the checkpoint; ``None`` when absent."""
        try:
            raw = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as error:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {error}"
            ) from error
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"corrupt checkpoint {self.path}: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"corrupt checkpoint {self.path}: expected a JSON object"
            )
        return CheckpointState.from_payload(payload)

    def clear(self) -> None:
        """Delete the checkpoint file (idempotent)."""
        self.path.unlink(missing_ok=True)


def load_checkpoint(directory: str | Path) -> CheckpointState | None:
    """Inspect the checkpoint in ``directory`` (``None`` when absent)."""
    return CheckpointManager(directory).load()
