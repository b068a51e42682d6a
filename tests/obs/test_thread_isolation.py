"""Thread-isolation of the activation slots in obs.trace / obs.events.

Regression tests for the service era: overlapping discovery runs on
separate threads must not observe each other's tracer or emitter.
With the old process-global activation slot, thread B's ``activated``
call captured thread A's emissions (cross-contaminated telemetry), and
the interleaved save/restore pairs could reinstate a finished run's
dead tracer as "active" for a still-running one.  These tests fail
against that implementation and pin the thread-local behaviour.
"""

import threading

from repro.obs import events as obs_events
from repro.obs import trace as obs_trace
from repro.obs.events import ProgressEmitter, activated_events
from repro.obs.sinks import InMemorySink
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


class TestEmitterThreadIsolation:
    def test_overlapping_runs_do_not_cross_contaminate_events(self):
        received: dict[str, list[str]] = {"a": [], "b": []}
        barrier = threading.Barrier(2)

        def run(name: str) -> None:
            emitter = ProgressEmitter()
            emitter.subscribe(
                lambda event: received[name].append(event.payload["owner"])
            )
            with activated_events(emitter):
                barrier.wait(timeout=5.0)  # both emitters "active" at once
                obs_events.active_emitter().emit(
                    "cache", hits=0, misses=0, owner=name
                )
                barrier.wait(timeout=5.0)  # neither exits until both emitted

        threads = [threading.Thread(target=run, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert received["a"] == ["a"]
        assert received["b"] == ["b"]

    def test_emitter_activation_is_invisible_to_other_threads(self):
        seen: list[bool] = []
        with activated_events(ProgressEmitter()):
            thread = threading.Thread(
                target=lambda: seen.append(obs_events.events_enabled())
            )
            thread.start()
            thread.join(timeout=5.0)
            assert obs_events.events_enabled()
        assert seen == [False]
        assert not obs_events.events_enabled()
