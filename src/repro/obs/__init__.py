"""repro.obs — tracing, metrics, live telemetry, and profiling.

The observability layer of the repo: a low-overhead tracer
(:mod:`repro.obs.trace`), a metrics registry of counters / gauges /
timers (:mod:`repro.obs.metrics`), pluggable span sinks — in-memory,
JSONL file, stdlib ``logging`` (:mod:`repro.obs.sinks`) — the
per-level trace report (:mod:`repro.obs.report`), a live
progress/ETA event stream (:mod:`repro.obs.events`), Prometheus and
JSONL metric exporters (:mod:`repro.obs.export`), and a
span-attributed sampling profiler (:mod:`repro.obs.profile`).  See
``docs/OBSERVABILITY.md`` for the full tour.

The TANE driver and the partition store are instrumented against the
module-level helpers in :mod:`repro.obs.trace`; with no tracer
activated every instrumentation site reduces to a flag check returning
a shared no-op span, so the disabled path costs nothing measurable.

Typical use::

    from repro import TaneConfig, discover
    from repro.obs import InMemorySink, JsonlSink, Tracer

    tracer = Tracer(sinks=[JsonlSink("trace.jsonl")])
    result = discover(relation, TaneConfig(tracer=tracer))
    tracer.close()
    # result.trace is the tracer; result.statistics is derived from
    # tracer.metrics — same counters, whole-run view.

or, from the command line::

    repro discover data.csv --trace trace.jsonl --log-level INFO
    repro trace-report trace.jsonl
"""

from repro.obs.events import (
    BoundedEventQueue,
    EtaEstimator,
    JsonlEventWriter,
    ProgressEmitter,
    ProgressEvent,
    load_events,
    validate_event,
)
from repro.obs.export import (
    HttpServerLifecycle,
    MetricsServer,
    SnapshotWriter,
    load_snapshots,
    prometheus_exposition,
    write_prometheus,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, Timer, aggregate_snapshots
from repro.obs.profile import ProfileReport, SamplingProfiler, profile_sidecar_path
from repro.obs.report import TraceReport, build_report, report_from_file
from repro.obs.sinks import InMemorySink, JsonlSink, LoggingSink, SpanSink, load_spans
from repro.obs.trace import (
    NULL_SPAN,
    NullSpan,
    Span,
    Tracer,
    activated,
    active_tracer,
    enabled,
    set_gauge,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "aggregate_snapshots",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "enabled",
    "active_tracer",
    "span",
    "set_gauge",
    "activated",
    "SpanSink",
    "InMemorySink",
    "JsonlSink",
    "LoggingSink",
    "load_spans",
    "TraceReport",
    "build_report",
    "report_from_file",
    "ProgressEvent",
    "ProgressEmitter",
    "BoundedEventQueue",
    "JsonlEventWriter",
    "EtaEstimator",
    "validate_event",
    "load_events",
    "prometheus_exposition",
    "write_prometheus",
    "HttpServerLifecycle",
    "MetricsServer",
    "SnapshotWriter",
    "load_snapshots",
    "SamplingProfiler",
    "ProfileReport",
    "profile_sidecar_path",
]
