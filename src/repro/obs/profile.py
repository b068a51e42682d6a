"""Span-attributed sampling profiler with per-level memory high-water.

``SearchStatistics`` says *how much* work a run did and the trace says
*when*; neither says where the CPU actually went inside a phase.  The
:class:`SamplingProfiler` answers that with the classic statistical
approach — a background thread that, every ``interval`` seconds,
records

* the tracer's currently open **span stack** (so each sample is
  attributed to the innermost open span — ``compute_dependencies``,
  ``store.spill``, ... — and transitively to every
  enclosing span), and
* the main thread's innermost Python **frame** (via
  ``sys._current_frames()``), for a top-functions table.

Sampling needs no bytecode instrumentation: overhead is one stack copy
per interval, a few microseconds, so even a 1 ms interval perturbs the
run by well under a percent.  Attribution requires open spans, so the
composition root activates a sink-less tracer when profiling an
untraced run — the span stack exists either way.

Self vs total follows profiler convention: a sample counts as *self*
time of the innermost open span and as *total* time of every span on
the stack.  Multiplying counts by the interval estimates seconds.

Memory is sampled structurally instead: ``tracemalloc`` (stdlib) runs
for the duration, and while it runs the profiler is also a sink on the
tracer it samples: each ``level`` close record reads the traced
high-water mark and resets it, yielding the peak *per lattice level*,
which is exactly the shape of TANE's memory story (the middle levels
dominate).  tracemalloc roughly doubles allocation cost, which is why
the whole profiler is opt-in (``TaneConfig(profile=True)`` / ``repro
discover --profile``).

The result is a :class:`ProfileReport`: self/total tables per span
name, top sampled frames, per-level peak bytes.  A profiled traced run
puts it on the ``discover`` close record, so ``repro discover --profile
--trace t.jsonl`` keeps everything in one file and ``repro trace-report
--profile t.jsonl`` renders both from it.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc
from collections import Counter as TallyCounter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs.sinks import load_spans
from repro.obs.trace import Span, Tracer

__all__ = [
    "SamplingProfiler",
    "ProfileReport",
]

NO_SPAN = "(no span)"
"""Attribution bucket for samples taken outside any open span."""


@dataclass
class ProfileReport:
    """The assembled output of one profiled run."""

    interval: float
    """Sampling period in seconds."""

    samples: int = 0
    """Total samples taken (span and frame counts sum to this)."""

    duration: float = 0.0
    """Wall-clock seconds the profiler ran."""

    self_counts: dict[str, int] = field(default_factory=dict)
    """Samples whose *innermost* open span had this name."""

    total_counts: dict[str, int] = field(default_factory=dict)
    """Samples with this span name anywhere on the open stack."""

    frame_counts: dict[str, int] = field(default_factory=dict)
    """Samples by innermost Python frame (``func (file:line)``)."""

    level_peak_bytes: dict[int, int] = field(default_factory=dict)
    """tracemalloc high-water per completed lattice level."""

    def seconds(self, count: int) -> float:
        """Estimated seconds represented by ``count`` samples."""
        return count * self.interval

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (level keys become strings)."""
        return {
            "interval": self.interval,
            "samples": self.samples,
            "duration": self.duration,
            "self_counts": dict(self.self_counts),
            "total_counts": dict(self.total_counts),
            "frame_counts": dict(self.frame_counts),
            "level_peak_bytes": {
                str(level): peak for level, peak in self.level_peak_bytes.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ProfileReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            interval=float(payload["interval"]),
            samples=int(payload.get("samples", 0)),
            duration=float(payload.get("duration", 0.0)),
            self_counts={
                str(k): int(v) for k, v in payload.get("self_counts", {}).items()
            },
            total_counts={
                str(k): int(v) for k, v in payload.get("total_counts", {}).items()
            },
            frame_counts={
                str(k): int(v) for k, v in payload.get("frame_counts", {}).items()
            },
            level_peak_bytes={
                int(k): int(v) for k, v in payload.get("level_peak_bytes", {}).items()
            },
        )

    @classmethod
    def load(cls, path: str | Path) -> "ProfileReport":
        """Read the report from a trace file's ``discover`` close record."""
        for span in load_spans(path):
            if span.name == "discover" and "profile" in span.attributes:
                return cls.from_dict(span.attributes["profile"])
        raise ValueError(
            f"{path}: no profile in the trace (record it with "
            "'discover --profile --trace')"
        )

    # -- rendering -------------------------------------------------------

    def format(self, top: int = 10) -> str:
        """Fixed-width tables for the CLI (``trace-report --profile``)."""
        lines: list[str] = []
        lines.append(
            f"sampling profile: {self.samples} samples at "
            f"{self.interval * 1000:.1f}ms over {self.duration:.3f}s"
        )
        header = f"{'span':<24} {'self_s':>8} {'self_%':>7} {'total_s':>8} {'total_%':>8}"
        lines.append(header)
        lines.append("-" * len(header))
        denominator = max(self.samples, 1)
        ranked = sorted(
            set(self.self_counts) | set(self.total_counts),
            key=lambda name: (-self.self_counts.get(name, 0), name),
        )
        for name in ranked:
            self_count = self.self_counts.get(name, 0)
            total_count = self.total_counts.get(name, 0)
            lines.append(
                f"{name:<24} {self.seconds(self_count):>8.3f} "
                f"{100.0 * self_count / denominator:>7.1f} "
                f"{self.seconds(total_count):>8.3f} "
                f"{100.0 * total_count / denominator:>8.1f}"
            )
        if self.frame_counts:
            lines.append("")
            lines.append(f"top sampled frames (of {self.samples})")
            for frame, count in sorted(
                self.frame_counts.items(), key=lambda item: (-item[1], item[0])
            )[:top]:
                lines.append(
                    f"  {count:>6} ({100.0 * count / denominator:>5.1f}%)  {frame}"
                )
        if self.level_peak_bytes:
            mb = 1024.0 * 1024.0
            lines.append("")
            lines.append("tracemalloc high-water per level")
            lines.append(f"{'lvl':>4} {'peak_MB':>9}")
            for level in sorted(self.level_peak_bytes):
                lines.append(
                    f"{level:>4} {self.level_peak_bytes[level] / mb:>9.2f}"
                )
        return "\n".join(lines)


class SamplingProfiler:
    """Background-thread sampler attributing CPU to the open span stack.

    Parameters
    ----------
    tracer:
        The tracer whose span stack identifies what the run is doing.
        Samples taken while no span is open land in ``(no span)``.
    interval:
        Seconds between samples (default 5 ms — a few hundred samples
        per second of runtime, far below 1% overhead).
    trace_memory:
        Also run ``tracemalloc`` for per-level peak-memory attribution
        (read at each ``level`` close record while sampling).
    """

    def __init__(
        self,
        tracer: Tracer,
        *,
        interval: float = 0.005,
        trace_memory: bool = True,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.tracer = tracer
        self.interval = interval
        self.trace_memory = trace_memory
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._target_ident: int | None = None
        self._started_at = 0.0
        self._duration = 0.0
        self._owns_tracemalloc = False
        self._samples = 0
        self._self_counts: TallyCounter[str] = TallyCounter()
        self._total_counts: TallyCounter[str] = TallyCounter()
        self._frame_counts: TallyCounter[str] = TallyCounter()
        self._level_peaks: dict[int, int] = {}

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Begin sampling the *calling* thread; returns ``self``."""
        if self._thread is not None:
            return self
        self._target_ident = threading.get_ident()
        self._started_at = time.perf_counter()
        if self.trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True
        self._stop.clear()
        self.tracer.sinks.append(self)
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self.tracer.sinks.remove(self)
        self._duration += time.perf_counter() - self._started_at
        if self._owns_tracemalloc:
            tracemalloc.stop()
            self._owns_tracemalloc = False

    @contextmanager
    def running(self) -> Iterator["SamplingProfiler"]:
        """Scope the profiler around a block."""
        self.start()
        try:
            yield self
        finally:
            self.stop()

    # -- sampling --------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        # The stack list mutates concurrently with the run; copy first.
        # A torn read can at worst misattribute one sample by one span.
        names = tuple(span.name for span in list(self.tracer._stack))
        self._samples += 1
        if names:
            self._self_counts[names[-1]] += 1
            for name in set(names):
                self._total_counts[name] += 1
        else:
            self._self_counts[NO_SPAN] += 1
            self._total_counts[NO_SPAN] += 1
        ident = self._target_ident
        if ident is None:
            return
        frame = sys._current_frames().get(ident)
        if frame is not None:
            code = frame.f_code
            self._frame_counts[
                f"{code.co_name} ({Path(code.co_filename).name}:{frame.f_lineno})"
            ] += 1

    # -- memory attribution (a sink on the sampled tracer) ----------------

    def record(self, span: Span) -> None:
        """Note the memory high-water when a ``level`` span closes."""
        if span.name == "level" and span.end is not None:
            self.note_level_complete(int(span.attributes["level"]))

    def flush(self) -> None:
        """Nothing buffered."""

    def close(self) -> None:
        """The profiler outlives the tracer's sinks."""

    def note_level_complete(self, level: int) -> None:
        """Record the traced-memory high-water of the level just finished."""
        if not self.trace_memory or not tracemalloc.is_tracing():
            return
        _current, peak = tracemalloc.get_traced_memory()
        self._level_peaks[level] = peak
        tracemalloc.reset_peak()

    # -- output ----------------------------------------------------------

    def report(self) -> ProfileReport:
        """Assemble the report from everything sampled so far."""
        duration = self._duration
        if self._thread is not None:
            duration += time.perf_counter() - self._started_at
        return ProfileReport(
            interval=self.interval,
            samples=self._samples,
            duration=duration,
            self_counts=dict(self._self_counts),
            total_counts=dict(self._total_counts),
            frame_counts=dict(self._frame_counts),
            level_peak_bytes=dict(self._level_peaks),
        )
