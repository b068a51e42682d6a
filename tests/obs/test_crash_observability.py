"""Observability on the crash paths.

Two pins from the fault-tolerance work: a run that dies mid-search
still flushes its trace (the evidence matters most exactly then), and
the ``store.resident_bytes`` gauge tracks discards and store close —
it must read 0 once a store has released everything, not freeze at the
last put's value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tane import TaneConfig, discover
from repro.model.relation import Relation
from repro.obs import JsonlSink, Tracer, activated, load_records, load_spans
from repro.partition.store import DiskPartitionStore, MemoryPartitionStore
from repro.partition.vectorized import CsrPartition


@pytest.fixture
def relation() -> Relation:
    return Relation.from_rows(
        [[i % 3, (i * 7) % 5, i % 2, (i * 3) % 4] for i in range(60)],
        ["A", "B", "C", "D"],
    )


class Interrupt(Exception):
    pass


class Bomb:
    """Sink raising :class:`Interrupt` when level 2 opens."""

    def record(self, span):
        if span.name == "level" and span.end is None and span.attributes["level"] == 2:
            raise Interrupt()

    def flush(self):
        pass

    def close(self):
        pass


class TestTraceFlushOnCrash:
    def test_raising_progress_callback_still_yields_complete_trace(
        self, relation, tmp_path
    ):
        # The live progress consumer is a sink on the stream; one that
        # raises when level 2 opens aborts the run like any sink.
        path = tmp_path / "crash.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path), Bomb()])
        with pytest.raises(Interrupt):
            discover(relation, TaneConfig(tracer=tracer))
        # No tracer.close()/flush() by the caller: the driver's own
        # crash-path flush must have made the spans durable already.
        root = load_records(path)[-1]
        assert (root["name"], root["attrs"]["ok"]) == ("discover", False)
        spans = load_spans(path)
        names = {span.name for span in spans}
        assert "level" in names, f"level spans missing from {sorted(names)}"
        level_one = [
            s for s in spans if s.name == "level" and s.attributes.get("level") == 1
        ]
        assert level_one, "the completed level must be in the flushed trace"
        tracer.close()


def gauge_value(tracer):
    return tracer.metrics.gauge_value("store.resident_bytes")


def partition_of(codes):
    return CsrPartition.from_column(np.asarray(codes, dtype=np.int64))


class TestResidentBytesGauge:
    def test_memory_store_gauge_tracks_discard_and_close(self, tmp_path):
        tracer = Tracer()
        store = MemoryPartitionStore()
        with activated(tracer):
            store.put(1, partition_of([0] * 64))
            store.put(2, partition_of([1] * 64 + [0] * 64))
            full = gauge_value(tracer)
            assert full > 0
            store.discard(2)
            after_discard = gauge_value(tracer)
            assert 0 < after_discard < full
            store.close()
            assert gauge_value(tracer) == 0

    def test_disk_store_gauge_tracks_discard_and_close(self, tmp_path):
        tracer = Tracer()
        store = DiskPartitionStore(directory=tmp_path)
        with activated(tracer):
            store.put(1, partition_of([0] * 64))
            store.put(2, partition_of([1] * 64 + [0] * 64))
            full = gauge_value(tracer)
            assert full > 0
            store.discard(2)
            after_discard = gauge_value(tracer)
            assert 0 < after_discard < full
            store.close()
            assert gauge_value(tracer) == 0

    def test_traced_run_ends_with_zero_resident_bytes(self, relation, tmp_path):
        tracer = Tracer()
        discover(relation, TaneConfig(tracer=tracer, store="disk"))
        assert gauge_value(tracer) == 0
        assert tracer.metrics.gauge("store.resident_bytes").max_value > 0
        tracer.close()
