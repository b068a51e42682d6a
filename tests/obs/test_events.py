"""Tests for the progress-event stream: emitter, consumers, schema, ETA."""

import json
import threading

import pytest

from repro.obs import events
from repro.obs.events import (
    EVENT_KINDS,
    BoundedEventQueue,
    EtaEstimator,
    JsonlEventWriter,
    ProgressEmitter,
    ProgressEvent,
    load_events,
    validate_event,
)


class TestProgressEvent:
    def test_round_trip_through_wire_form(self):
        event = ProgressEvent(
            kind="level_start",
            elapsed=1.5,
            wall=1000.0,
            payload={"level": 3, "size": 120, "tested": 66, "remaining": 500},
        )
        rebuilt = ProgressEvent.from_dict(event.to_dict())
        assert rebuilt == event

    def test_wire_form_is_flat_json(self):
        event = ProgressEvent(kind="cache", elapsed=0.1, wall=1.0,
                              payload={"hits": 4, "misses": 2})
        wire = event.to_dict()
        assert wire["kind"] == "cache"
        assert wire["hits"] == 4
        json.dumps(wire)  # must be serializable as-is


class TestValidateEvent:
    def test_every_kind_has_a_schema(self):
        for kind in EVENT_KINDS:
            event = ProgressEvent(kind=kind, elapsed=0.0, wall=0.0, payload={})
            problems = validate_event(event)
            # Missing required fields are reported, unknown-kind is not.
            assert all("unknown" not in p for p in problems)

    def test_unknown_kind_rejected(self):
        problems = validate_event(
            ProgressEvent(kind="nope", elapsed=0.0, wall=0.0)
        )
        assert problems and "unknown event kind" in problems[0]

    def test_missing_required_field_reported(self):
        problems = validate_event(
            ProgressEvent(kind="cache", elapsed=0.0, wall=0.0,
                          payload={"hits": 1})
        )
        assert any("misses" in p for p in problems)

    def test_non_scalar_payload_rejected(self):
        problems = validate_event(
            ProgressEvent(kind="cache", elapsed=0.0, wall=0.0,
                          payload={"hits": 1, "misses": [2]})
        )
        assert any("not a JSON scalar" in p for p in problems)

    def test_accepts_wire_dict(self):
        assert validate_event({"kind": "cache", "elapsed": 0.0, "wall": 0.0,
                               "hits": 1, "misses": 0}) == []


class TestProgressEmitter:
    def test_subscribers_receive_events_in_order(self):
        emitter = ProgressEmitter()
        seen = []
        emitter.subscribe(lambda e: seen.append(e.kind))
        emitter.emit("cache", hits=1, misses=0)
        emitter.emit("cache", hits=2, misses=0)
        assert seen == ["cache", "cache"]
        assert emitter.events_emitted == 2

    def test_raising_subscriber_is_dropped_not_fatal(self):
        emitter = ProgressEmitter()
        ok = []

        def broken(event):
            raise RuntimeError("progress bar died")

        emitter.subscribe(broken)
        emitter.subscribe(lambda e: ok.append(e))
        emitter.emit("cache", hits=1, misses=0)
        emitter.emit("cache", hits=2, misses=0)
        assert len(ok) == 2
        assert emitter.subscribers_dropped == 1

    def test_unsubscribe(self):
        emitter = ProgressEmitter()
        seen = []
        callback = seen.append
        emitter.subscribe(callback)
        emitter.unsubscribe(callback)
        emitter.emit("cache", hits=0, misses=0)
        assert seen == []

    def test_elapsed_restamped_by_begin(self):
        emitter = ProgressEmitter()
        emitter.begin()
        event = emitter.emit("cache", hits=0, misses=0)
        assert event.elapsed < 1.0

    def test_reserved_payload_keys_rejected(self):
        # The wire form flattens payload next to the kind/elapsed/wall
        # envelope, so a payload reusing those names would silently
        # corrupt the reloaded stream.
        emitter = ProgressEmitter()
        for reserved in ("kind", "elapsed", "wall"):
            with pytest.raises(ValueError, match=reserved):
                emitter.emit("cache", hits=1, misses=0, **{reserved: "x"})

    def test_concurrent_emission_is_safe(self):
        emitter = ProgressEmitter()
        queue = emitter.queue(maxlen=10_000)

        def hammer():
            for index in range(200):
                emitter.emit("cache", hits=index, misses=0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(queue.drain()) == 800
        assert emitter.events_emitted == 800


class TestBoundedEventQueue:
    def test_drops_oldest_on_overflow(self):
        queue = BoundedEventQueue(maxlen=2)
        for index in range(4):
            queue.push(ProgressEvent(kind="cache", elapsed=float(index),
                                     wall=0.0, payload={}))
        events_list = queue.drain()
        assert [e.elapsed for e in events_list] == [2.0, 3.0]
        assert queue.dropped == 2

    def test_drain_empties_the_queue(self):
        queue = BoundedEventQueue(maxlen=8)
        queue.push(ProgressEvent(kind="cache", elapsed=0.0, wall=0.0))
        assert len(queue.drain()) == 1
        assert len(queue) == 0
        assert queue.drain() == []

    def test_rejects_nonpositive_maxlen(self):
        with pytest.raises(ValueError):
            BoundedEventQueue(maxlen=0)


class TestJsonlEventWriter:
    def test_writes_and_loads_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        emitter = ProgressEmitter()
        writer = JsonlEventWriter(path)
        emitter.subscribe(writer)
        emitter.emit("run_start", rows=10, attributes=3, epsilon=0.0,
                     measure="g3")
        emitter.emit("run_end", seconds=0.5, ok=True)
        writer.close()
        loaded = load_events(path)
        assert [e.kind for e in loaded] == ["run_start", "run_end"]
        assert loaded[0].payload["rows"] == 10
        assert loaded[1].payload["ok"] is True

    def test_phase_end_round_trips_with_its_kind_intact(self, tmp_path):
        # Regression: a payload field named `kind` once clobbered the
        # event kind in the flat wire form, so reloaded streams came
        # back with invalid kinds.  A phase event names its phase in a
        # field of its own and reloads as itself.
        path = tmp_path / "events.jsonl"
        emitter = ProgressEmitter()
        writer = JsonlEventWriter(path)
        emitter.subscribe(writer)
        emitter.emit("phase_end", level=2, phase="prune", seconds=0.01)
        writer.close()
        (event,) = load_events(path)
        assert event.kind == "phase_end"
        assert event.payload["phase"] == "prune"
        assert validate_event(event) == []

    def test_write_after_close_is_silent(self, tmp_path):
        writer = JsonlEventWriter(tmp_path / "events.jsonl")
        writer.close()
        writer(ProgressEvent(kind="cache", elapsed=0.0, wall=0.0))
        writer.close()  # idempotent

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a valid event line"):
            load_events(path)


class TestModuleActivation:
    def test_disabled_by_default(self):
        assert not events.events_enabled()
        assert events.active_emitter() is None

    def test_activation_is_scoped_and_restored(self):
        emitter = ProgressEmitter()
        queue = emitter.queue()
        with events.activated_events(emitter):
            assert events.active_emitter() is emitter
            events.active_emitter().emit("cache", hits=1, misses=0)
        assert not events.events_enabled()
        assert [e.kind for e in queue.drain()] == ["cache"]

    def test_activation_restores_on_exception(self):
        emitter = ProgressEmitter()
        with pytest.raises(RuntimeError):
            with events.activated_events(emitter):
                raise RuntimeError("boom")
        assert not events.events_enabled()


class TestEtaEstimator:
    def test_no_estimate_before_first_completed_level(self):
        eta = EtaEstimator(num_attributes=5)
        eta.level_started(1, size=5, work_rows=100, elapsed=0.0)
        assert eta.eta_seconds is None

    def test_estimate_appears_and_shrinks_as_levels_complete(self):
        eta = EtaEstimator(num_attributes=6)
        # A synthetic run where each level takes work * 1ms/row and
        # work halves per level: the estimator should track it.
        elapsed = 0.0
        work = 1000
        estimates = []
        for level in range(1, 5):
            eta.level_started(level, size=10, work_rows=work, elapsed=elapsed)
            seconds = work * 0.001
            elapsed += seconds
            eta.level_finished(level, seconds, size=10, surviving=8,
                               elapsed=elapsed)
            if eta.eta_seconds is not None:
                estimates.append(eta.eta_seconds)
            work //= 2
        assert estimates, "no estimate produced"
        assert estimates[-1] < estimates[0]

    def test_tick_consumes_in_level_elapsed(self):
        eta = EtaEstimator(num_attributes=4)
        eta.level_started(1, size=4, work_rows=100, elapsed=0.0)
        eta.level_finished(1, 1.0, size=4, surviving=4, elapsed=1.0)
        eta.level_started(2, size=6, work_rows=100, elapsed=1.0)
        before = eta.eta_seconds
        eta.tick(elapsed=1.5)
        assert eta.eta_seconds <= before

    def test_projected_remaining_sets_respects_binomial_cap(self):
        eta = EtaEstimator(num_attributes=4)
        eta.level_started(1, size=4, work_rows=10, elapsed=0.0)
        # Even with survival 1.0 the projection cannot exceed C(4, k).
        assert eta.projected_remaining_sets() <= 4 + 6 + 4 + 1
