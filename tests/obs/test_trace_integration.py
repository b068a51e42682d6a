"""End-to-end tracing tests against real TANE runs.

Pins the guarantees of the tracing layer: the JSONL schema round-trips,
a traced run changes nothing about the discovery output, and every
``SearchStatistics`` counter is identical with tracing on and off.
"""

import dataclasses

import pytest

from repro.core.tane import TaneConfig, discover
from repro.model.relation import Relation
from repro.obs import (
    InMemorySink,
    JsonlSink,
    Tracer,
    build_report,
    load_records,
    load_spans,
)

# Fields that depend on wall-clock time, excluded from the "identical
# with tracing on vs off" comparison.
_TIME_FIELDS = {"elapsed_seconds"}

# A disk store that keeps only part of a level resident.
_SPILLY = (("resident_budget_bytes", 1500), ("min_spill_bytes", 0))


@pytest.fixture
def relation() -> Relation:
    return Relation.from_rows(
        [[i % 3, (i * 7) % 5, i % 2, (i * 3) % 4] for i in range(60)],
        ["A", "B", "C", "D"],
    )


def traced_run(relation, tmp_path, label, **config_kwargs):
    memory = InMemorySink()
    path = tmp_path / f"{label}.jsonl"
    tracer = Tracer(sinks=[memory, JsonlSink(path)])
    result = discover(relation, TaneConfig(tracer=tracer, **config_kwargs))
    tracer.close()
    return result, memory.spans, path


class TestJsonlRoundTrip:
    def test_full_run_roundtrips(self, relation, tmp_path):
        _, spans, path = traced_run(relation, tmp_path, "rt", epsilon=0.1)
        reloaded = load_spans(path)
        assert [s.to_dict() for s in reloaded] == [s.to_dict() for s in spans]

    def test_trace_covers_every_level(self, relation, tmp_path):
        result, spans, _ = traced_run(relation, tmp_path, "cov")
        level_spans = [s for s in spans if s.name == "level"]
        assert [s.attributes["level"] for s in level_spans] == list(
            range(1, len(result.statistics.level_sizes) + 1)
        )
        assert [s.attributes["s_l"] for s in level_spans] == result.statistics.level_sizes

    def test_phase_attributes_sum_to_statistics(self, relation, tmp_path):
        result, spans, _ = traced_run(relation, tmp_path, "sum", epsilon=0.05)
        stats = result.statistics
        compute = [s for s in spans if s.name == "compute_dependencies"]
        assert sum(s.attributes["tests"] for s in compute) == stats.validity_tests
        assert (
            sum(s.attributes["error_computations"] for s in compute)
            == stats.error_computations
        )
        assert (
            sum(s.attributes["bound_rejections"] for s in compute)
            == stats.g3_bound_rejections
        )
        generate = [s for s in spans if s.name == "generate_next_level"]
        assert sum(s.attributes["products"] for s in generate) == stats.partition_products
        prune = [s for s in spans if s.name == "prune"]
        assert sum(s.attributes["keys_found"] for s in prune) == stats.keys_found


class TestOpenCloseRecords:
    @pytest.mark.parametrize(
        "strategy",
        [
            {},
            {"strategy": "topk", "top_k": 3},
            {"strategy": "dfd", "dfd_seed": 1},
            {"store": "disk", "store_options": _SPILLY},
        ],
        ids=["levelwise", "topk", "dfd", "levelwise-disk"],
    )
    def test_records_pair_one_for_one(self, relation, tmp_path, strategy):
        _, spans, path = traced_run(relation, tmp_path, "pairs", **strategy)
        records = load_records(path)
        opens = [r for r in records if "end" not in r]
        closes = [r for r in records if "end" in r]
        assert sorted(r["span_id"] for r in opens) == sorted(
            r["span_id"] for r in closes
        )
        assert len(closes) == len(spans)
        # Each span opens before it closes, and inside its parent.
        position = {}
        for index, record in enumerate(records):
            position.setdefault(record["span_id"], []).append(index)
        for record in closes:
            opened, closed = position[record["span_id"]]
            assert opened < closed
            parent = record["parent_id"]
            if parent is not None:
                assert position[parent][0] < opened and closed < position[parent][1]
        assert (records[0]["name"], records[-1]["name"]) == ("discover", "discover")

    def test_traced_disk_run_matches_untraced_store_counters(self, relation, tmp_path):
        # Measuring a level's row-work must not load spilled partitions
        # or reorder the disk store's LRU.
        config = {"store": "disk", "store_options": _SPILLY}
        plain = discover(relation, TaneConfig(**config))
        assert plain.statistics.store_spills and plain.statistics.store_loads
        traced, _, _ = traced_run(relation, tmp_path, "disk", **config)
        for field in ("store_spills", "store_loads", "validity_tests"):
            assert getattr(traced.statistics, field) == getattr(plain.statistics, field)


class TestDisabledPathIsInert:
    def test_format_identical_with_and_without_tracing(self, relation, tmp_path):
        plain = discover(relation, TaneConfig(epsilon=0.1))
        traced, _, _ = traced_run(relation, tmp_path, "fmt", epsilon=0.1)
        # elapsed wall-clock necessarily differs between two runs; pin
        # it so the comparison is byte-exact on everything else.
        plain.statistics.elapsed_seconds = traced.statistics.elapsed_seconds = 0.0
        assert plain.format() == traced.format()

    def test_counters_identical_with_and_without_tracing(self, relation, tmp_path):
        for kwargs in ({}, {"epsilon": 0.1}, {"store": "disk"}):
            plain = dataclasses.asdict(
                discover(relation, TaneConfig(**kwargs)).statistics
            )
            traced_result, _, _ = traced_run(relation, tmp_path, "cnt", **kwargs)
            traced_stats = dataclasses.asdict(traced_result.statistics)
            for field in _TIME_FIELDS:
                plain.pop(field), traced_stats.pop(field)
            assert plain == traced_stats

    def test_untraced_result_has_no_trace_handle(self, relation):
        assert discover(relation, TaneConfig()).trace is None

    def test_traced_result_keeps_tracer(self, relation, tmp_path):
        result, spans, _ = traced_run(relation, tmp_path, "handle")
        assert result.trace is not None
        assert result.trace.span_count == len(spans)
        assert result.statistics.validity_tests == result.trace.metrics.counter_value(
            "tane.validity_tests"
        )


class TestReport:
    def test_report_rows_match_levels(self, relation, tmp_path):
        result, spans, _ = traced_run(relation, tmp_path, "rep", epsilon=0.05)
        report = build_report(spans)
        assert [row.level for row in report.levels] == list(
            range(1, len(result.statistics.level_sizes) + 1)
        )
        assert [row.s_l for row in report.levels] == result.statistics.level_sizes
        assert sum(row.tests for row in report.levels) == result.statistics.validity_tests
        rendered = report.format()
        assert "per-level phase timings" in rendered
        assert "s_l" in rendered

    def test_disk_store_io_attributed_to_levels(self, relation, tmp_path):
        result, spans, _ = traced_run(
            relation, tmp_path, "disk", store="disk",
            store_options=(("resident_budget_bytes", 1), ("min_spill_bytes", 0)),
        )
        report = build_report(spans)
        assert sum(row.spills for row in report.levels) == result.statistics.store_spills
        assert sum(row.loads for row in report.levels) == result.statistics.store_loads
        assert sum(row.spill_bytes for row in report.levels) > 0
