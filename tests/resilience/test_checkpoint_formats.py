"""The one on-disk checkpoint format.

``checkpoint.json`` holds a single version-2 document for every
traversal strategy: fingerprint, step, the strategy's own snapshot,
dependencies, keys, counters, series and ``complete``.  These tests
pin its round trip with a levelwise and with a dfd snapshot, and the
rejection of malformed, unknown-shape and version-1 documents (both
the old level shape and the old ``"format": "node"`` shape).
"""

import json

import pytest

from repro.core.checkpoint import CheckpointManager, CheckpointState
from repro.exceptions import CheckpointError

_FINGERPRINT = {"strategy": "dfd", "seed": 5, "num_rows": 40}


def _node_state(**overrides):
    """A state carrying a dfd walk snapshot (the verdict cache)."""
    fields = dict(
        fingerprint=dict(_FINGERPRINT),
        step=32,
        snapshot={"verdicts": [[1, 2, True, 0.0]]},
        counters={"tane.validity_tests": 44.0},
        complete=False,
    )
    fields.update(overrides)
    return CheckpointState(**fields)


def _level_state(**overrides):
    """A state carrying a levelwise snapshot (next level, previous
    level, its ``C+`` pairs) with results and series."""
    fields = dict(
        fingerprint={"strategy": "levelwise", "num_rows": 40},
        step=1,
        snapshot={
            "level": [0b011],
            "previous_level_masks": [0b001, 0b010],
            "cplus_prev": [[0b001, 0b111], [0b010, 0b101]],
        },
        dependencies=[(0b001, 1, 0.0)],
        keys=[0b100],
        counters={"tane.validity_tests": 3.0},
        series={"tane.level_sizes": [3], "tane.pruned_level_sizes": [2]},
    )
    fields.update(overrides)
    return CheckpointState(**fields)


class TestNodePayloadRoundTrip:
    def test_to_from_payload_is_identity(self):
        state = _node_state()
        rebuilt = CheckpointState.from_payload(state.to_payload())
        assert rebuilt == state

    def test_payload_is_json_serializable_and_discriminated(self):
        # One shape for every strategy: the version, not a format key,
        # says what the document is.
        payload = json.loads(json.dumps(_node_state().to_payload()))
        assert payload["version"] == 2 and "format" not in payload
        assert CheckpointState.from_payload(payload) == _node_state()

    def test_complete_flag_round_trips(self):
        state = _node_state(complete=True)
        assert CheckpointState.from_payload(state.to_payload()).complete

    def test_wrong_version_rejected(self):
        payload = _node_state().to_payload()
        payload["version"] = 999
        with pytest.raises(CheckpointError, match="version"):
            CheckpointState.from_payload(payload)

    def test_missing_state_rejected(self):
        payload = _node_state().to_payload()
        del payload["snapshot"]
        with pytest.raises(CheckpointError, match="malformed"):
            CheckpointState.from_payload(payload)

    def test_non_object_state_rejected(self):
        payload = _node_state().to_payload()
        payload["snapshot"] = [1, 2, 3]
        with pytest.raises(CheckpointError, match="malformed"):
            CheckpointState.from_payload(payload)


class TestLevelPayloadRoundTrip:
    def test_to_from_payload_is_identity(self):
        state = _level_state()
        payload = json.loads(json.dumps(state.to_payload()))
        assert CheckpointState.from_payload(payload) == state


class TestManagerDispatch:
    def test_load_returns_node_state_for_node_payload(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_node_state())
        loaded = manager.load()
        assert isinstance(loaded, CheckpointState)
        assert loaded == _node_state()

    def test_level_payload_without_format_key_still_loads(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        level = _level_state()
        assert "format" not in level.to_payload()
        manager.save(level)
        assert manager.load() == level

    def test_unknown_format_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        payload = _node_state().to_payload()
        payload["format"] = "graph"
        manager.path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError, match="format"):
            manager.load()


class TestVersionOneRefused:
    """Documents of the two earlier shapes are refused, not migrated."""

    def _load(self, tmp_path, payload):
        manager = CheckpointManager(tmp_path)
        manager.path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError, match="version 1"):
            manager.load()

    def test_level_payload_refused(self, tmp_path):
        self._load(tmp_path, {
            "version": 1,
            "fingerprint": {"strategy": "levelwise"},
            "level_number": 2,
            "level": [3],
            "previous_level_masks": [1, 2],
            "cplus_prev": [[1, 7], [2, 7]],
            "dependencies": [],
            "keys": [],
            "counters": {},
            "series": {},
            "complete": False,
        })

    def test_node_payload_refused(self, tmp_path):
        self._load(tmp_path, {
            "version": 1,
            "format": "node",
            "fingerprint": dict(_FINGERPRINT),
            "batch_number": 4,
            "state": {"verdicts": []},
            "counters": {},
            "complete": False,
        })
