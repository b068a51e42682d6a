"""Tests for the tracer core: spans, activation, null path, sinks."""

import json
import logging

import pytest

from repro.obs import trace
from repro.obs.sinks import InMemorySink, JsonlSink, LoggingSink, load_spans
from repro.obs.trace import NULL_SPAN, Span, Tracer


class TestSpanTree:
    def test_parenting_follows_nesting(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild"):
                    pass
        names = [span.name for span in sink.spans]
        assert names == ["grandchild", "child", "root"]  # exit order
        by_name = {span.name: span for span in sink.spans}
        assert by_name["root"].parent_id is None
        assert by_name["child"].parent_id == root.span_id
        assert by_name["grandchild"].parent_id == child.span_id

    def test_attributes_and_duration(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("op", kind="spill") as span:
            span.set("bytes", 128)
        (finished,) = sink.spans
        assert finished.attributes == {"kind": "spill", "bytes": 128}
        assert finished.duration >= 0.0
        assert finished.end >= finished.start

    def test_span_count(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert tracer.span_count == 3

    def test_raising_sink_on_open_leaves_the_stack_clean(self):
        class Refuse:
            def record(self, span):
                if span.name == "child" and span.end is None:
                    raise RuntimeError("refused")

        tracer = Tracer(sinks=[Refuse()])
        with pytest.raises(RuntimeError, match="refused"):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        assert tracer.current is None


class TestNullPath:
    def test_module_span_is_shared_null_when_disabled(self):
        assert not trace.enabled()
        assert trace.span("anything", key="value") is NULL_SPAN
        # the null span supports the full surface as no-ops
        with trace.span("x") as span:
            span.set("ignored", 1)

    def test_gauge_is_a_noop_when_disabled(self):
        trace.set_gauge("g", 5)  # nothing to assert beyond "does not raise"

    def test_activation_routes_module_helpers(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with trace.activated(tracer):
            assert trace.enabled()
            assert trace.active_tracer() is tracer
            with trace.span("op"):
                with trace.span("inner"):
                    pass
            trace.set_gauge("g", 3)
        assert not trace.enabled()
        assert [s.name for s in sink.spans] == ["inner", "op"]
        assert tracer.metrics.gauge_value("g") == 3

    def test_activation_restores_previous_tracer(self):
        outer, inner = Tracer(), Tracer()
        with trace.activated(outer):
            with trace.activated(inner):
                assert trace.active_tracer() is inner
            assert trace.active_tracer() is outer
        assert trace.active_tracer() is None

    def test_activation_restored_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with trace.activated(tracer):
                raise RuntimeError("boom")
        assert not trace.enabled()


class TestSpanSerialization:
    def test_dict_roundtrip(self):
        tracer = Tracer()
        with tracer.span("op", mask=7) as span:
            span.set("bytes", 64)
        restored = Span.from_dict(span.to_dict())
        assert restored.name == span.name
        assert restored.span_id == span.span_id
        assert restored.parent_id == span.parent_id
        assert restored.attributes == span.attributes
        assert restored.start == span.start
        assert restored.end == span.end
        assert restored.duration == pytest.approx(span.duration)


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        tracer.close()
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [(r["name"], "end" in r) for r in records] == [
            ("a", False),
            ("b", False),
            ("b", True),
            ("a", True),
        ]
        for payload in records:
            assert {"name", "span_id", "parent_id", "start", "attrs"} <= set(payload)
            if "end" in payload:
                assert "duration" in payload

    def test_load_spans_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        with tracer.span("root", level=1):
            with tracer.span("store.load", mask=9):
                pass
        tracer.close()
        spans = load_spans(path)
        assert [s.name for s in spans] == ["store.load", "root"]
        assert spans[0].attributes == {"mask": 9}

    def test_load_spans_rejects_garbage(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_spans(path)

    def test_close_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()
        sink.flush()  # no error after close


class TestLoggingSink:
    def test_spans_reach_logger(self, caplog):
        tracer = Tracer(sinks=[LoggingSink(level=logging.INFO)])
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            with tracer.span("level", s_l=12):
                pass
        assert any("span level" in record.message and "s_l=12" in record.message
                   for record in caplog.records)
