"""End-to-end telemetry tests: the span stream of real runs, ETA
accuracy, gauge lifecycle across runs, report order.

These tests drive the real discovery pipeline (``discover`` with
``TaneConfig(tracer=..., profile=..., metrics=...)``) and pin the
acceptance criteria of the telemetry layer:

* the record stream of a run is complete, ordered, and serializable,
  with every open record matched by a close record;
* the ETA estimate is within 30% of the actual remaining time by the
  50%-complete mark on the wisconsin-replica workload;
* gauges reset between back-to-back runs sharing one registry;
* the report does not depend on span arrival order.
"""

import io
import json
import random
import threading

from repro.core.tane import TaneConfig, discover
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.uci import make_wisconsin_like
from repro.model.relation import Relation
from repro.obs import InMemorySink, MetricsRegistry, ProgressLine, QueueSink, Tracer
from repro.obs.report import build_report


def small_relation(rows: int = 120, attributes: int = 4, seed: int = 7) -> Relation:
    rng = random.Random(seed)
    data = [
        [rng.randrange(2 + column) for column in range(attributes)]
        for _ in range(rows)
    ]
    names = [chr(ord("A") + index) for index in range(attributes)]
    return Relation.from_rows(data, names)


def run_with_records(relation, **config_kwargs):
    queue = QueueSink(maxlen=100_000)
    result = discover(
        relation, TaneConfig(tracer=Tracer(sinks=[queue]), **config_kwargs)
    )
    return result, queue.drain()


def opened(records, name):
    return [r for r in records if r["name"] == name and "end" not in r]


def closed(records, name):
    return [r for r in records if r["name"] == name and "end" in r]


class TestEventStream:
    def test_stream_brackets_run_and_levels(self):
        result, records = run_with_records(small_relation())
        assert (records[0]["name"], "end" in records[0]) == ("discover", False)
        assert (records[-1]["name"], "end" in records[-1]) == ("discover", True)
        levels = len(result.statistics.level_sizes)
        assert len(opened(records, "level")) == levels
        assert len(closed(records, "level")) == levels
        # Three phases per level, each bracketed.
        for phase in ("compute_dependencies", "prune", "generate_next_level"):
            assert len(opened(records, phase)) == levels
            assert len(closed(records, phase)) == levels

    def test_every_event_is_schema_valid(self):
        _result, records = run_with_records(small_relation())
        for record in records:
            json.dumps(record)
            assert {"name", "span_id", "parent_id", "start", "attrs"} <= set(record)
        opens = sorted(r["span_id"] for r in records if "end" not in r)
        closes = sorted(r["span_id"] for r in records if "end" in r)
        assert opens == closes

    def test_level_start_counts_are_exact(self):
        result, records = run_with_records(small_relation())
        sizes = [r["attrs"]["s_l"] for r in opened(records, "level")]
        assert sizes == result.statistics.level_sizes
        levels = [r["attrs"]["level"] for r in opened(records, "level")]
        assert levels == list(range(1, len(sizes) + 1))
        # Level 2's partitions were materialized at the boundary before
        # it, so its open record carries their measured row-work (an
        # exact run's last level is rank-only and is not measured).
        assert opened(records, "level")[1]["attrs"]["work_rows"] > 0

    def test_run_end_reports_outcome(self):
        result, records = run_with_records(small_relation())
        final = records[-1]["attrs"]
        assert final["ok"] is True
        assert final["dependencies"] == len(result.dependencies)
        assert final["keys"] == len(result.keys)

    def test_profile_attaches_report(self):
        result, records = run_with_records(
            small_relation(rows=300), profile=True, profile_interval=0.001
        )
        assert result.profile is not None
        assert result.profile.samples >= 0
        assert result.profile.level_peak_bytes  # level close records fed it
        levels = len(result.statistics.level_sizes)
        assert set(result.profile.level_peak_bytes) <= set(range(1, levels + 1))
        assert records[-1]["attrs"]["profile"] == result.profile.to_dict()


class _LevelStarts(ProgressLine):
    """The progress line, remembering its state at each level start."""

    def __init__(self):
        super().__init__(io.StringIO())
        self.starts = []
        self.total_seconds = None

    def record(self, span):
        super().record(span)
        if span.name == "level" and span.end is None:
            self.starts.append(
                (self.tested, self.estimator.eta_seconds, span.start - self._origin)
            )
        elif span.name == "discover" and span.end is not None:
            self.total_seconds = span.duration


class TestEtaAccuracy:
    def test_eta_within_30pct_at_half_way_on_wisconsin_replica(self):
        relation = replicate_with_unique_suffix(make_wisconsin_like(), 18)
        line = _LevelStarts()
        result = discover(relation, TaneConfig(tracer=Tracer(sinks=[line])))
        total_seconds = line.total_seconds
        total_sets = result.statistics.total_sets
        checked = False
        for tested, eta_seconds, elapsed in line.starts:
            fraction = tested / total_sets
            if fraction < 0.5 or eta_seconds is None:
                continue
            actual_remaining = total_seconds - elapsed
            error = abs(eta_seconds - actual_remaining)
            assert error <= 0.30 * actual_remaining + 0.05, (
                f"at {fraction:.0%} tested: eta "
                f"{eta_seconds:.3f}s vs actual "
                f"{actual_remaining:.3f}s remaining"
            )
            checked = True
            break
        assert checked, "no level boundary at >= 50% tested produced an ETA"


class TestGaugeLifecycle:
    def test_sequential_runs_do_not_inherit_stale_gauges(self):
        registry = MetricsRegistry()
        big = small_relation(rows=2000, attributes=5)
        tiny = small_relation(rows=20, attributes=2, seed=9)
        first = discover(big, TaneConfig(metrics=registry))
        second = discover(tiny, TaneConfig(metrics=registry))
        assert first.statistics.peak_resident_bytes > 0
        # Without the start-of-run gauge reset the second run would
        # report the first run's (much larger) high-water mark.
        assert (
            second.statistics.peak_resident_bytes
            < first.statistics.peak_resident_bytes
        )

    def test_reset_gauges_scopes_by_prefix(self):
        registry = MetricsRegistry()
        registry.gauge("store.resident_bytes").set(100)
        registry.gauge("other.thing").set(5)
        registry.reset_gauges(("store.",))
        assert registry.gauge_value("store.resident_bytes") == 0
        assert registry.gauge_value("other.thing") == 5

    def test_reset_gauges_without_prefixes_resets_all(self):
        registry = MetricsRegistry()
        registry.gauge("a").set(1)
        registry.gauge("b").set(2)
        registry.reset_gauges()
        assert registry.gauge_value("a") == 0
        assert registry.gauge_value("b") == 0


class TestTraceReportTelemetry:
    def test_totals_absent_from_plain_report(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("discover"):
            pass
        text = build_report(sink.spans).format()
        assert "partition cache" not in text


class TestConcurrentEmitOrdering:
    def test_every_concurrent_span_reaches_the_sink(self):
        # Runs on separate threads each drive their own tracer; a sink
        # they share sees every span of every one of them.
        sink = InMemorySink()

        def trace_many(mask: int) -> None:
            tracer = Tracer(sinks=[sink])
            for _ in range(100):
                with tracer.span("store.load", mask=mask, bytes=8):
                    pass

        threads = [
            threading.Thread(target=trace_many, args=(mask,)) for mask in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(sink.spans) == 400
        assert sorted({span.attributes["mask"] for span in sink.spans}) == [0, 1, 2, 3]

    def test_report_rendering_is_order_independent(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("discover"):
            with tracer.span("level", level=1):
                for mask in (3, 1, 2):
                    with tracer.span("store.load", mask=mask, bytes=64 * mask):
                        pass
        spans = list(sink.spans)
        text = build_report(spans).format()
        shuffled = list(spans)
        random.Random(0).shuffle(shuffled)
        assert build_report(shuffled).format() == text
