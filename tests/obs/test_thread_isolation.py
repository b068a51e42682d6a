"""Thread-isolation of the one activation slot, in obs.trace.

Regression tests for the service era: overlapping discovery runs on
separate threads must not observe each other's tracer.
With the old process-global activation slot, thread B's ``activated``
call captured thread A's emissions (cross-contaminated telemetry), and
the interleaved save/restore pairs could reinstate a finished run's
dead tracer as "active" for a still-running one.  These tests fail
against that implementation and pin the thread-local behaviour.
"""

import random
import threading

from repro.core.tane import TaneConfig, discover
from repro.model.relation import Relation
from repro.obs import trace as obs_trace
from repro.obs.sinks import InMemorySink, QueueSink
from repro.obs.trace import Tracer, activated


class TestTracerThreadIsolation:
    def test_two_threads_trace_into_their_own_sinks(self):
        sinks = {name: InMemorySink() for name in ("a", "b")}
        barrier = threading.Barrier(2)
        errors: list[str] = []

        def run(name: str) -> None:
            tracer = Tracer(sinks=[sinks[name]])
            with activated(tracer):
                barrier.wait(timeout=5.0)  # both activations overlap
                if obs_trace.active_tracer() is not tracer:
                    errors.append(f"{name}: sees another thread's tracer")
                    return
                with obs_trace.span("work", owner=name):
                    barrier.wait(timeout=5.0)
            barrier.wait(timeout=5.0)  # both runs fully unwound

        threads = [threading.Thread(target=run, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors, errors[0]
        for name, sink in sinks.items():
            spans = sink.spans
            assert len(spans) == 1
            assert spans[0].attributes["owner"] == name

    def test_activation_does_not_leak_to_other_threads(self):
        seen: list[object] = []
        tracer = Tracer()
        with activated(tracer):
            thread = threading.Thread(
                target=lambda: seen.append(obs_trace.active_tracer())
            )
            thread.start()
            thread.join(timeout=5.0)
        assert seen == [None]

    def test_finished_run_cannot_reinstate_a_dead_tracer(self):
        # The interleaving that corrupted the global slot:
        #   A activates, B activates (saving A's tracer),
        #   A exits, B exits "restoring" A's dead tracer.
        # With thread-local slots each thread restores only its own.
        order = []
        gate_a_active = threading.Event()
        gate_b_active = threading.Event()
        gate_a_exited = threading.Event()
        result: dict[str, object] = {}

        def thread_a() -> None:
            with activated(Tracer()):
                gate_a_active.set()
                gate_b_active.wait(timeout=5.0)
                order.append("a-exit")
            gate_a_exited.set()

        def thread_b() -> None:
            gate_a_active.wait(timeout=5.0)
            with activated(Tracer()):
                gate_b_active.set()
                gate_a_exited.wait(timeout=5.0)
                order.append("b-exit")
            result["after_b"] = obs_trace.active_tracer()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert order == ["a-exit", "b-exit"]
        assert result["after_b"] is None
        assert obs_trace.active_tracer() is None


class _MeetAtLevelOne:
    """Sink holding each run at its level-1 open record until both
    runs are there, so the two runs are active at once."""

    def __init__(self, barrier):
        self.barrier = barrier

    def record(self, span):
        if span.name == "level" and span.end is None and span.attributes["level"] == 1:
            self.barrier.wait(timeout=10.0)

    def flush(self):
        pass

    def close(self):
        pass


def _relation(rows: int, seed: int) -> Relation:
    rng = random.Random(seed)
    data = [[rng.randrange(3 + column) for column in range(4)] for _ in range(rows)]
    return Relation.from_rows(data, ["A", "B", "C", "D"])


class TestEmitterThreadIsolation:
    def test_overlapping_runs_do_not_cross_contaminate_events(self):
        # The disk store emits its spill spans through the module-level
        # slot, so they land on whichever tracer the slot names.
        barrier = threading.Barrier(2)
        queues = {"a": QueueSink(maxlen=100_000), "b": QueueSink(maxlen=100_000)}
        rows = {"a": 150, "b": 90}
        results = {}

        def run(name: str) -> None:
            tracer = Tracer(sinks=[_MeetAtLevelOne(barrier), queues[name]])
            results[name] = discover(
                _relation(rows[name], seed=len(name) + rows[name]),
                TaneConfig(
                    tracer=tracer,
                    store="disk",
                    store_options=(("resident_budget_bytes", 1), ("min_spill_bytes", 0)),
                ),
            )

        threads = [threading.Thread(target=run, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        for name, queue in queues.items():
            records = queue.drain()
            roots = [r for r in records if r["name"] == "discover"]
            assert [r["attrs"]["rows"] for r in roots] == [rows[name]] * 2
            spills = [r for r in records if r["name"] == "store.spill" and "end" in r]
            assert spills
            assert len(spills) == results[name].statistics.store_spills
