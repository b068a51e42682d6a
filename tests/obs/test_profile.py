"""Tests for the sampling profiler and its report."""

import time

import pytest

from repro.obs.profile import NO_SPAN, ProfileReport, SamplingProfiler
from repro.obs.sinks import JsonlSink
from repro.obs.trace import Tracer


class TestSamplingProfiler:
    def test_samples_attribute_to_open_spans(self):
        tracer = Tracer(sinks=())
        profiler = SamplingProfiler(tracer, interval=0.001, trace_memory=False)
        with profiler.running():
            with tracer.span("outer"):
                with tracer.span("inner"):
                    time.sleep(0.05)
        report = profiler.report()
        assert report.samples > 0
        assert report.total_counts.get("outer", 0) > 0
        assert report.total_counts.get("inner", 0) > 0
        # Samples inside "inner" are self-time of inner, total of both.
        assert report.self_counts.get("inner", 0) <= report.total_counts["inner"]
        assert report.total_counts["outer"] >= report.total_counts["inner"]

    def test_samples_outside_spans_bucketed(self):
        tracer = Tracer(sinks=())
        profiler = SamplingProfiler(tracer, interval=0.001, trace_memory=False)
        with profiler.running():
            time.sleep(0.03)
        report = profiler.report()
        assert report.self_counts.get(NO_SPAN, 0) > 0

    def test_frame_samples_collected(self):
        tracer = Tracer(sinks=())
        profiler = SamplingProfiler(tracer, interval=0.001, trace_memory=False)
        with profiler.running():
            deadline = time.perf_counter() + 0.05
            while time.perf_counter() < deadline:
                sum(range(100))
        assert profiler.report().frame_counts

    def test_note_level_complete_records_peaks(self):
        tracer = Tracer(sinks=())
        profiler = SamplingProfiler(tracer, interval=0.01, trace_memory=True)
        with profiler.running():
            blob = list(range(50_000))
            profiler.note_level_complete(1)
            del blob
            profiler.note_level_complete(2)
        report = profiler.report()
        assert set(report.level_peak_bytes) == {1, 2}
        assert report.level_peak_bytes[1] > report.level_peak_bytes[2]

    def test_level_close_records_note_memory_while_running(self):
        tracer = Tracer(sinks=())
        profiler = SamplingProfiler(tracer, interval=0.01, trace_memory=True)
        with profiler.running():
            assert profiler in tracer.sinks
            with tracer.span("level", level=1):
                blob = list(range(50_000))
            del blob
        assert profiler not in tracer.sinks
        with tracer.span("level", level=2):
            pass
        assert set(profiler.report().level_peak_bytes) == {1}

    def test_stop_is_idempotent_and_start_reentrant(self):
        profiler = SamplingProfiler(Tracer(sinks=()), interval=0.01,
                                    trace_memory=False)
        profiler.start()
        assert profiler.start() is profiler
        profiler.stop()
        profiler.stop()

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(Tracer(sinks=()), interval=0.0)


class TestProfileReport:
    def make_report(self) -> ProfileReport:
        return ProfileReport(
            interval=0.005,
            samples=100,
            duration=0.5,
            self_counts={"compute_dependencies": 60, "prune": 10},
            total_counts={"compute_dependencies": 60, "prune": 10,
                          "discover": 100},
            frame_counts={"refine (vectorized.py:100)": 55},
            level_peak_bytes={1: 1024, 2: 4096},
        )

    def test_round_trip_through_sidecar(self, tmp_path):
        # The report travels on the trace's ``discover`` close record.
        report = self.make_report()
        path = tmp_path / "t.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        with tracer.span("discover") as root:
            root.set("profile", report.to_dict())
        tracer.close()
        loaded = ProfileReport.load(path)
        assert loaded == report
        assert loaded.level_peak_bytes[2] == 4096  # int keys restored

    def test_load_rejects_non_sidecar(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        with tracer.span("discover"):
            pass
        tracer.close()
        with pytest.raises(ValueError, match="no profile in the trace"):
            ProfileReport.load(path)
        path.write_text("garbage", encoding="utf-8")
        with pytest.raises(ValueError):
            ProfileReport.load(path)

    def test_seconds_scales_by_interval(self):
        assert self.make_report().seconds(10) == pytest.approx(0.05)

    def test_format_renders_all_tables(self):
        text = self.make_report().format()
        assert "sampling profile: 100 samples" in text
        assert "compute_dependencies" in text
        assert "top sampled frames" in text
        assert "tracemalloc high-water per level" in text
        # Self-ranked: compute_dependencies before prune.
        assert text.index("compute_dependencies") < text.index("prune")
