"""The disabled telemetry path costs at most 0.1% of an untraced run.

The instrumentation is compiled in, so there is no uninstrumented build
to A/B against, and run-to-run noise on a sub-second discovery dwarfs
a sub-0.1% effect.  Instead each disabled entry point is timed on its
own (``timeit``) and scaled by how many times a run reaches it — the
span counts of the same run with tracing enabled — over the wall time
of the untraced run:

* ``trace.span()`` with no active tracer (returns the shared null span);
* the search driver's span seam with no span-providing hook (an
  untraced run attaches none), which every ``level`` / phase /
  ``node_batch`` record of a traced run passes through.
"""

import time
import timeit

import pytest

from repro.core.tane import TaneConfig, discover
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.uci import make_wisconsin_like
from repro.obs import InMemorySink, Tracer
from repro.obs import trace as obs_trace
from repro.search.hooks import NULL_SPAN, resolve_span_provider

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
    sink = InMemorySink()
    discover(relation, TaneConfig(tracer=Tracer(sinks=[sink])))
    driver_spans = {"level", "compute_dependencies", "prune", "generate_next_level"}
    sites = sum(span.name in driver_spans for span in sink.spans)
    assert sites > 0

    seam = resolve_span_provider(())
    assert seam("level") is NULL_SPAN
    per_call = _seconds_per_call("seam('level', level=1, s_l=9)", seam=seam)
    fraction = sites * per_call / untraced_seconds
    assert fraction <= MAX_FRACTION, (
        f"{sites} disabled driver spans x {per_call * 1e9:.0f} ns = "
        f"{fraction:.4%} of a {untraced_seconds:.3f} s run"
    )
