"""The disabled telemetry path costs at most 0.1% of an untraced run.

The instrumentation is compiled in, so there is no uninstrumented build
to A/B against, and run-to-run noise on a sub-second discovery dwarfs
a sub-0.1% effect.  Instead each disabled entry point is timed on its
own (``timeit``) and scaled by how many times a run reaches it — the
span count and event count of the same run with telemetry enabled —
over the wall time of the untraced run:

* ``trace.span()`` with no active tracer (returns the shared null span);
* ``events.active_emitter()`` with no active emitter (the guard every
  event emission site reads).
"""

import time
import timeit

import pytest

from repro.core.tane import TaneConfig, discover
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.uci import make_wisconsin_like
from repro.obs import InMemorySink, ProgressEmitter, Tracer
from repro.obs import events as obs_events
from repro.obs import trace as obs_trace

MAX_FRACTION = 0.001


@pytest.fixture(scope="module")
def relation():
    return replicate_with_unique_suffix(make_wisconsin_like(), 4)


@pytest.fixture(scope="module")
def untraced_seconds(relation):
    """Fastest of three untraced runs (the smallest denominator)."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        discover(relation, TaneConfig())
        samples.append(time.perf_counter() - start)
    return min(samples)


def _seconds_per_call(statement: str, **names) -> float:
    """Fastest per-call time of ``statement`` over five timeit rounds."""
    number = 20_000
    return min(timeit.repeat(statement, globals=names, repeat=5, number=number)) / number


def test_disabled_span_overhead(relation, untraced_seconds):
    sink = InMemorySink()
    tracer = Tracer(sinks=[sink])
    discover(relation, TaneConfig(tracer=tracer))
    tracer.close()
    sites = len(sink.spans)
    assert sites > 0

    assert not obs_trace.enabled()
    per_call = _seconds_per_call("span('x', level=1)", span=obs_trace.span)
    fraction = sites * per_call / untraced_seconds
    assert fraction <= MAX_FRACTION, (
        f"{sites} disabled spans x {per_call * 1e9:.0f} ns = "
        f"{fraction:.4%} of a {untraced_seconds:.3f} s run"
    )


def test_disabled_event_overhead(relation, untraced_seconds):
    emitter = ProgressEmitter()
    queue = emitter.queue(maxlen=100_000)
    discover(relation, TaneConfig(events=emitter))
    sites = len(queue.drain())
    assert sites > 0

    assert not obs_events.events_enabled()
    per_call = _seconds_per_call("read()", read=obs_events.active_emitter)
    fraction = sites * per_call / untraced_seconds
    assert fraction <= MAX_FRACTION, (
        f"{sites} disabled event reads x {per_call * 1e9:.0f} ns = "
        f"{fraction:.4%} of a {untraced_seconds:.3f} s run"
    )
