"""End-to-end telemetry tests: events from real runs, ETA accuracy,
gauge lifecycle across runs, cache rendering, concurrent emit order.

These tests drive the real discovery pipeline (``discover`` with
``TaneConfig(events=..., profile=..., metrics=...)``) and pin the
acceptance criteria of the telemetry layer:

* the event stream of a run is complete, ordered, and schema-valid;
* the ETA estimate is within 30% of the actual remaining time by the
  50%-complete mark on the wisconsin-replica workload;
* gauges reset between back-to-back runs sharing one registry;
* ``trace-report`` renders partition-cache and delta-shipping totals;
* concurrently emitted worker spans render deterministically.
"""

import random
import threading

import pytest

from repro.core.tane import TaneConfig, discover
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.uci import make_wisconsin_like
from repro.model.relation import Relation
from repro.obs import InMemorySink, MetricsRegistry, ProgressEmitter, Tracer
from repro.obs.events import validate_event
from repro.obs.report import build_report
from repro.partition.cache import PartitionCache


def small_relation(rows: int = 120, attributes: int = 4, seed: int = 7) -> Relation:
    rng = random.Random(seed)
    data = [
        [rng.randrange(2 + column) for column in range(attributes)]
        for _ in range(rows)
    ]
    names = [chr(ord("A") + index) for index in range(attributes)]
    return Relation.from_rows(data, names)


class TestEventStream:
    def run_with_events(self, relation, **config_kwargs):
        emitter = ProgressEmitter()
        queue = emitter.queue(maxlen=100_000)
        result = discover(relation, TaneConfig(events=emitter, **config_kwargs))
        return result, queue.drain()

    def test_stream_brackets_run_and_levels(self):
        result, events = self.run_with_events(small_relation())
        kinds = [event.kind for event in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        levels = len(result.statistics.level_sizes)
        assert kinds.count("level_start") == levels
        assert kinds.count("level_end") == levels
        # Three phases per level, each bracketed.
        assert kinds.count("phase_start") == kinds.count("phase_end")

    def test_every_event_is_schema_valid(self):
        _result, events = self.run_with_events(small_relation())
        for event in events:
            assert validate_event(event) == [], (event.kind, event.payload)

    def test_level_start_counts_are_exact(self):
        result, events = self.run_with_events(small_relation())
        sizes = [e.payload["size"] for e in events if e.kind == "level_start"]
        assert sizes == result.statistics.level_sizes
        tested = [e.payload["tested"] for e in events if e.kind == "level_start"]
        # Cumulative sets tested before each level.
        expected = [sum(sizes[:index]) for index in range(len(sizes))]
        assert tested == expected

    def test_run_end_reports_outcome(self):
        result, events = self.run_with_events(small_relation())
        final = events[-1].payload
        assert final["ok"] is True
        assert final["dependencies"] == len(result.dependencies)
        assert final["keys"] == len(result.keys)

    def test_cache_events_surface_hits_on_second_run(self):
        relation = small_relation()
        cache = PartitionCache()
        discover(relation, TaneConfig(partition_cache=cache))
        _result, events = self.run_with_events(relation, partition_cache=cache)
        cache_events = [e for e in events if e.kind == "cache"]
        assert cache_events, "no cache events despite a warm cache"
        assert cache_events[-1].payload["hits"] > 0

    def test_profile_attaches_report(self):
        emitter = ProgressEmitter()
        result = discover(
            small_relation(rows=300),
            TaneConfig(events=emitter, profile=True, profile_interval=0.001),
        )
        assert result.profile is not None
        assert result.profile.samples >= 0
        assert result.profile.level_peak_bytes  # ProfileHooks fed boundaries
        levels = len(result.statistics.level_sizes)
        assert set(result.profile.level_peak_bytes) <= set(range(1, levels + 1))


class TestEtaAccuracy:
    def test_eta_within_30pct_at_half_way_on_wisconsin_replica(self):
        relation = replicate_with_unique_suffix(make_wisconsin_like(), 18)
        emitter = ProgressEmitter()
        queue = emitter.queue(maxlen=100_000)
        result = discover(relation, TaneConfig(events=emitter))
        events = queue.drain()
        total_seconds = events[-1].payload["seconds"]
        total_sets = result.statistics.total_sets
        checked = False
        for event in events:
            if event.kind != "level_start":
                continue
            fraction = event.payload["tested"] / total_sets
            if fraction < 0.5 or event.payload["eta_seconds"] is None:
                continue
            actual_remaining = total_seconds - event.elapsed
            error = abs(event.payload["eta_seconds"] - actual_remaining)
            assert error <= 0.30 * actual_remaining + 0.05, (
                f"at {fraction:.0%} tested: eta "
                f"{event.payload['eta_seconds']:.3f}s vs actual "
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
    def test_cache_totals_rendered(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("discover") as root:
            root.set("cache_hits", 30)
            root.set("cache_misses", 10)
        report = build_report(sink.spans)
        assert report.cache_hits == 30
        assert report.cache_misses == 10
        text = report.format()
        assert "partition cache: 30 hits / 10 misses (75.0% hit rate)" in text

    def test_totals_absent_from_plain_report(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("discover"):
            pass
        text = build_report(sink.spans).format()
        assert "partition cache" not in text

    def test_cache_counters_flow_from_real_cached_run(self):
        relation = small_relation()
        cache = PartitionCache()
        discover(relation, TaneConfig(partition_cache=cache))
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        discover(relation, TaneConfig(partition_cache=cache, tracer=tracer))
        report = build_report(sink.spans)
        assert report.cache_hits > 0
        assert "partition cache" in report.format()


class TestConcurrentEmitOrdering:
    def test_store_rows_add_up_under_races(self):
        """Store spans recorded from racing threads add up exactly.

        The report must not depend on arrival order: the level row
        counts every spill and load, however the concurrent
        ``Tracer.emit`` calls interleaved.
        """
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        barrier = threading.Barrier(4)

        def flush_spans(thread_index: int) -> None:
            barrier.wait()
            for index in range(50):
                tracer.emit(
                    "store.spill" if index % 2 else "store.load",
                    0.001,
                    mask=thread_index,
                    bytes=1024,
                )

        with tracer.span("discover"):
            with tracer.span("level", level=1):
                with tracer.span("generate_next_level"):
                    threads = [
                        threading.Thread(target=flush_spans, args=(index,))
                        for index in range(4)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()

        report = build_report(sink.spans)
        (level_row,) = report.levels
        assert (level_row.spills, level_row.loads) == (100, 100)
        assert (level_row.spill_bytes, level_row.load_bytes) == (102400, 102400)

    def test_report_rendering_is_order_independent(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("discover"):
            with tracer.span("level", level=1):
                for mask in (3, 1, 2):
                    tracer.emit("store.load", 0.01, mask=mask, bytes=64 * mask)
        spans = list(sink.spans)
        text = build_report(spans).format()
        shuffled = list(spans)
        random.Random(0).shuffle(shuffled)
        assert build_report(shuffled).format() == text

    def test_every_concurrent_span_reaches_the_sink(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])

        def emit_many(mask: int) -> None:
            for _ in range(100):
                tracer.emit("store.load", 0.0, mask=mask, bytes=8)

        threads = [threading.Thread(target=emit_many, args=(mask,))
                   for mask in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(sink.spans) == 400
        assert tracer.span_count == 400
