"""Metric instruments: counters, gauges, timers, and series.

The registry is the numeric side of the observability layer (spans in
:mod:`repro.obs.trace` are the temporal side).  It is deliberately
minimal and allocation-free on the hot path: an instrument is created
once (``registry.counter("tane.validity_tests")``) and the returned
object is mutated in place, so a cached instrument reference costs the
same as a plain attribute increment — the property the TANE driver
relies on to keep per-test bookkeeping cheap.

Instrument kinds
----------------
``Counter``
    Monotonically increasing integer/float (``inc``).
``Gauge``
    Last-written value plus its observed maximum (``set``) — used for
    resident-byte tracking where the peak matters as much as the
    current value.
``Timer``
    Accumulated seconds and an invocation count (``add``).
``series``
    An append-only list of per-level observations (``s_ℓ`` et al.);
    exposed as a plain list because the TANE driver appends once per
    level.

:class:`~repro.core.results.SearchStatistics` is derived from a
registry snapshot at the end of a run — the registry is the source of
truth, the statistics object a stable public view of it.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

__all__ = ["Counter", "Gauge", "Timer", "MetricsRegistry", "aggregate_snapshots"]


class Counter:
    """A monotonically increasing metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time value that also remembers its maximum."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0
        self.max_value: int | float = 0

    def set(self, value: int | float) -> None:
        """Record the current value (and fold it into the maximum)."""
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def reset(self) -> None:
        """Zero both the value and the remembered maximum.

        Gauges describe *current* state, so a registry reused across
        runs (a long-lived tracer) must clear them at run start or the
        new run reports the previous run's residency.
        """
        self.value = 0
        self.max_value = 0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value}, max={self.max_value})"


class Timer:
    """Accumulated duration of a repeated operation."""

    __slots__ = ("name", "seconds", "count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds: float = 0.0
        self.count: int = 0

    def add(self, seconds: float) -> None:
        """Record one timed operation of ``seconds`` duration."""
        self.seconds += seconds
        self.count += 1

    def __repr__(self) -> str:
        return f"Timer({self.name!r}, seconds={self.seconds:.6f}, count={self.count})"


class MetricsRegistry:
    """A namespace of named instruments, created on first access.

    Lookups are create-or-get: ``registry.counter("x")`` always returns
    the same :class:`Counter` object for the same name, so callers can
    cache the instrument and mutate it directly.  A name is bound to
    one instrument kind for the registry's lifetime; reusing it with a
    different kind raises ``ValueError`` (catching the typo early beats
    silently splitting a metric in two).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._series: dict[str, list] = {}

    # -- instrument accessors -------------------------------------------

    def _check_unique(self, name: str, kind: dict) -> None:
        for registered in (self._counters, self._gauges, self._timers, self._series):
            if registered is not kind and name in registered:
                raise ValueError(f"metric {name!r} already registered as another kind")

    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter called ``name``."""
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_unique(name, self._counters)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Return (creating if needed) the gauge called ``name``."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_unique(name, self._gauges)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def timer(self, name: str) -> Timer:
        """Return (creating if needed) the timer called ``name``."""
        instrument = self._timers.get(name)
        if instrument is None:
            self._check_unique(name, self._timers)
            instrument = self._timers[name] = Timer(name)
        return instrument

    def series(self, name: str) -> list:
        """Return (creating if needed) the append-only series ``name``."""
        values = self._series.get(name)
        if values is None:
            self._check_unique(name, self._series)
            values = self._series[name] = []
        return values

    def reset_gauges(self, prefixes: tuple[str, ...] = ()) -> None:
        """Reset every gauge (or those under ``prefixes``) to zero.

        Called at discovery start for the per-run gauges (``store.*``):
        counters accumulate across runs by design, but a stale gauge
        misreports the *current* run's state.
        """
        for name, gauge in self._gauges.items():
            if not prefixes or name.startswith(prefixes):
                gauge.reset()

    # -- read side ------------------------------------------------------

    def counter_value(self, name: str, default: int | float = 0) -> int | float:
        """Read a counter without creating it."""
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else default

    def gauge_value(self, name: str, default: int | float = 0) -> int | float:
        """Read a gauge's current value without creating it."""
        instrument = self._gauges.get(name)
        return instrument.value if instrument is not None else default

    def series_values(self, name: str) -> list:
        """Read a copy of a series without creating it."""
        return list(self._series.get(name, ()))

    def snapshot(self) -> dict[str, dict]:
        """A plain-dict dump of every instrument (for sinks and tests)."""
        return {
            "counters": {name: c.value for name, c in self._counters.items()},
            "gauges": {
                name: {"value": g.value, "max": g.max_value}
                for name, g in self._gauges.items()
            },
            "timers": {
                name: {"seconds": t.seconds, "count": t.count}
                for name, t in self._timers.items()
            },
            "series": {name: list(values) for name, values in self._series.items()},
        }

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._timers)} timers, "
            f"{len(self._series)} series>"
        )


def aggregate_snapshots(
    snapshots: Iterable[dict[str, Any]],
) -> dict[str, dict]:
    """Fold several :meth:`MetricsRegistry.snapshot` dicts into one.

    The discovery service gives every job its own registry (so
    overlapping runs cannot clobber each other's gauges) and exposes a
    single ``/metrics`` endpoint by aggregating the per-job snapshots
    with the service's own registry.  Aggregation semantics per kind:

    - counters and timers sum (they describe accumulated work);
    - a gauge's ``value`` sums across snapshots (total current
      residency over all live jobs) while its ``max`` takes the
      maximum of maxima (the worst single observation anywhere);
    - per-level series are dropped — they only make sense within one
      run and concatenating them across runs would misrepresent both.
    """
    counters: dict[str, int | float] = {}
    gauges: dict[str, dict[str, int | float]] = {}
    timers: dict[str, dict[str, int | float]] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, payload in snapshot.get("gauges", {}).items():
            merged = gauges.setdefault(name, {"value": 0, "max": 0})
            merged["value"] += payload.get("value", 0)
            merged["max"] = max(merged["max"], payload.get("max", 0))
        for name, payload in snapshot.get("timers", {}).items():
            merged = timers.setdefault(name, {"seconds": 0.0, "count": 0})
            merged["seconds"] += payload.get("seconds", 0.0)
            merged["count"] += payload.get("count", 0)
    return {"counters": counters, "gauges": gauges, "timers": timers, "series": {}}
