"""Tests for the one telemetry stream: span records, the sinks that
consume them (queue, JSONL), the activation slot, and the ETA model."""

import io
import threading
import time

import pytest

from repro.obs import trace
from repro.obs.events import EtaEstimator, ProgressLine
from repro.obs.sinks import JsonlSink, QueueSink, load_records, load_spans
from repro.obs.trace import Span, Tracer


class RecordingSink:
    """Keep ``(name, is_open)`` for every record, in arrival order."""

    def __init__(self):
        self.records = []

    def record(self, span):
        self.records.append((span.name, span.end is None))

    def flush(self):
        pass

    def close(self):
        pass


class TestProgressEvent:
    """A span record is the stream's event: open, then close."""

    def test_round_trip_through_wire_form(self):
        queue = QueueSink()
        tracer = Tracer(sinks=[queue])
        with tracer.span("level", level=3, s_l=120) as span:
            span.set("surviving", 66)
        opened, closed = queue.drain()
        assert "end" not in opened and "duration" not in opened
        assert opened["attrs"] == {"level": 3, "s_l": 120}
        assert closed["attrs"] == {"level": 3, "s_l": 120, "surviving": 66}
        rebuilt = Span.from_dict(closed)
        assert (rebuilt.name, rebuilt.start, rebuilt.end) == (
            span.name, span.start, span.end
        )
        assert Span.from_dict(opened).end is None


class TestProgressEmitter:
    """Sinks see every record in stream order."""

    def test_subscribers_receive_events_in_order(self):
        first, second = RecordingSink(), RecordingSink()
        tracer = Tracer(sinks=[first, second])
        with tracer.span("discover"):
            with tracer.span("level"):
                pass
        expected = [
            ("discover", True),
            ("level", True),
            ("level", False),
            ("discover", False),
        ]
        assert first.records == expected
        assert second.records == expected
        assert tracer.span_count == 2

    def test_elapsed_restamped_by_begin(self):
        # The progress line's clock and counts restart at each run's
        # ``discover`` open record, so a line reused for a second run
        # prints the same level-1 line again.
        stream = io.StringIO()
        tracer = Tracer(sinks=[ProgressLine(stream)])
        for _ in range(2):
            with tracer.span("discover", rows=10, attributes=3):
                with tracer.span("level", level=1, s_l=3):
                    pass
            time.sleep(0.2)
        starts = [line for line in stream.getvalue().splitlines() if "level 1" in line]
        assert len(starts) == 2
        assert starts[0] == starts[1]
        assert starts[0].startswith("[   0.0s] level 1 (3 sets) | tested 0")

    def test_concurrent_emission_is_safe(self):
        queue = QueueSink(maxlen=10_000)

        def hammer():
            tracer = Tracer(sinks=[queue])
            for index in range(200):
                with tracer.span("batch", index=index):
                    pass

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(queue.drain()) == 1600
        assert queue.dropped == 0


class TestBoundedEventQueue:
    """The service's drop-oldest queue of records."""

    def test_drops_oldest_on_overflow(self):
        queue = QueueSink(maxlen=2)
        tracer = Tracer(sinks=[queue])
        for index in range(2):
            with tracer.span("batch", index=index):
                pass
        records = queue.drain()
        assert [(r["attrs"]["index"], "end" in r) for r in records] == [
            (1, False),
            (1, True),
        ]
        assert queue.dropped == 2

    def test_drain_empties_the_queue(self):
        queue = QueueSink(maxlen=8)
        with Tracer(sinks=[queue]).span("x"):
            pass
        assert len(queue.drain()) == 2
        assert len(queue) == 0
        assert queue.drain() == []

    def test_rejects_nonpositive_maxlen(self):
        with pytest.raises(ValueError):
            QueueSink(maxlen=0)


class TestJsonlEventWriter:
    """The JSONL file holds both records of every span."""

    def test_writes_and_loads_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        with tracer.span("discover", rows=10) as root:
            root.set("ok", True)
        tracer.close()
        records = load_records(path)
        assert [("end" in r, r["attrs"]) for r in records] == [
            (False, {"rows": 10}),
            (True, {"rows": 10, "ok": True}),
        ]
        (span,) = load_spans(path)
        assert span.attributes["ok"] is True

    def test_phase_end_round_trips_with_its_kind_intact(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        with tracer.span("level", level=2):
            with tracer.span("prune") as phase:
                phase.set("keys_found", 1)
        tracer.close()
        names = [record["name"] for record in load_records(path)]
        assert names == ["level", "prune", "prune", "level"]
        prune = next(span for span in load_spans(path) if span.name == "prune")
        assert prune.attributes == {"keys_found": 1}

    def test_write_after_close_is_silent(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.close()
        with Tracer(sinks=[sink]).span("late"):
            pass
        sink.close()  # idempotent

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_records(path)


class TestModuleActivation:
    """``repro.obs.trace`` holds the one activation slot."""

    def test_disabled_by_default(self):
        assert not trace.enabled()
        assert trace.active_tracer() is None

    def test_activation_is_scoped_and_restored(self):
        queue = QueueSink()
        tracer = Tracer(sinks=[queue])
        with trace.activated(tracer):
            assert trace.active_tracer() is tracer
            with trace.span("store.load"):
                pass
        assert not trace.enabled()
        assert [r["name"] for r in queue.drain()] == ["store.load", "store.load"]

    def test_activation_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with trace.activated(Tracer()):
                raise RuntimeError("boom")
        assert not trace.enabled()


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
