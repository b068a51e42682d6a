"""Live progress events: the streaming side of the observability layer.

Spans (:mod:`repro.obs.trace`) and metrics (:mod:`repro.obs.metrics`)
describe a run *after* it happened; this module streams what is
happening *now*.  A :class:`ProgressEmitter` publishes typed
:class:`ProgressEvent` records — run/level/phase boundaries, candidate
counts tested vs. remaining, partition-cache hits — to any number of
subscribers while the search runs, so a CLI progress line, a
service's server-sent-events endpoint, or a JSONL tail can follow a
long discovery live instead of staring at a silent process.

Event vocabulary
----------------
``run_start``
    Discovery began: rows, attributes, epsilon, measure.
``level_start``
    A lattice level is about to run: ``level``, ``size`` (candidate
    sets), ``tested`` / ``remaining`` candidate-set totals, and the
    current ``eta_seconds`` estimate.
``phase_start`` / ``phase_end``
    One driver phase (``compute_dependencies`` / ``prune`` /
    ``generate_next_level``) opened or closed; ``phase_end`` carries
    the phase's span attributes (tests, keys found, products, ...).
``level_end``
    The level closed: ``seconds``, ``surviving``, ``dependencies``.
``nodes``
    A node-mode walk advanced: ``batch`` (scheduling rounds),
    ``tests`` (validity tests run — the walk's "nodes visited") and
    ``dependencies`` found so far.  Node traversals have no level
    structure, so there is no candidate total and no ETA; consumers
    degrade to counting.
``cache``
    Partition-cache totals changed: cumulative hits / misses.
``run_end``
    Discovery finished (or failed — see ``ok``): total seconds,
    dependencies, keys.

Every event is a frozen dataclass with a JSON-serializable payload;
:func:`validate_event` checks the schema (the contract the ``make
obs-smoke`` gate pins).

Consumers
---------
Subscribe a plain callback (:meth:`ProgressEmitter.subscribe`), attach
a bounded queue that drops oldest on overflow
(:class:`BoundedEventQueue` — the right shape for a polling HTTP
handler), or stream to a JSONL file that ``tail -f`` or the future
service can follow (:class:`JsonlEventWriter`).

Like tracing, activation is module-level scoped: a run activates its
emitter for the thread driving it (:func:`activated_events`), and
:func:`active_emitter` returns it (``None`` when disabled — one
thread-local read).  The search driver itself is reached through the
:class:`~repro.obs.search_hooks.ProgressHooks` plugin, so the search
core never imports this module.

ETA estimation
--------------
:class:`EtaEstimator` turns the event stream into a live
remaining-time estimate.  The levelwise structure makes this far
better informed than a generic progress bar: when level ℓ starts, its
candidate count is exact and its partitions are materialized, so the
estimator measures the level's *row-work* (the summed stripped
partition sizes ``Σ‖π‖``, which is what validity tests and partition
products actually iterate over) instead of guessing from set counts.
Costs per row shrink as partitions break apart up the lattice, so the
estimator tracks an EMA of the per-level unit-cost decay and of the
per-set row-work decay, projects future level sizes through the
lattice recurrence ``s_{ℓ+1} ≈ v_ℓ·(n-ℓ)/(ℓ+1)`` (``v_ℓ`` = sets
surviving pruning), and sums the projected level durations.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "ProgressEvent",
    "EVENT_KINDS",
    "validate_event",
    "ProgressEmitter",
    "BoundedEventQueue",
    "JsonlEventWriter",
    "EtaEstimator",
    "active_emitter",
    "events_enabled",
    "activated_events",
]


EVENT_KINDS = (
    "run_start",
    "level_start",
    "phase_start",
    "phase_end",
    "level_end",
    "nodes",
    "cache",
    "run_end",
)
"""Every event kind the pipeline emits, in rough lifecycle order."""

_REQUIRED_PAYLOAD: dict[str, tuple[str, ...]] = {
    "run_start": ("rows", "attributes", "epsilon", "measure"),
    "level_start": ("level", "size", "tested", "remaining"),
    "phase_start": ("level", "phase"),
    "phase_end": ("level", "phase", "seconds"),
    "level_end": ("level", "seconds", "surviving", "dependencies"),
    "nodes": ("batch", "tests", "dependencies"),
    "cache": ("hits", "misses"),
    "run_end": ("seconds", "ok"),
}
"""Payload keys every event of a kind must carry (the schema gate)."""

_RESERVED_KEYS = ("kind", "elapsed", "wall")
"""Wire-form field names payloads must not use.

:meth:`ProgressEvent.to_dict` flattens the payload into the same JSON
object as these envelope fields, so a payload key named ``kind`` would
silently overwrite the event's kind on disk and corrupt the reloaded
stream."""


@dataclass(frozen=True)
class ProgressEvent:
    """One typed progress record.

    ``elapsed`` is seconds since the run's ``run_start`` (monotonic
    clock); ``wall`` is a unix timestamp for cross-process alignment.
    ``payload`` holds the kind-specific fields (JSON scalars only).
    """

    kind: str
    elapsed: float
    wall: float
    payload: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The JSONL wire form of the event."""
        return {
            "kind": self.kind,
            "elapsed": self.elapsed,
            "wall": self.wall,
            **self.payload,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ProgressEvent":
        """Rebuild an event from :meth:`to_dict` output (a JSONL line)."""
        data = dict(payload)
        kind = data.pop("kind")
        elapsed = float(data.pop("elapsed", 0.0))
        wall = float(data.pop("wall", 0.0))
        return cls(kind=kind, elapsed=elapsed, wall=wall, payload=data)


def validate_event(event: "ProgressEvent | dict") -> list[str]:
    """Schema check; returns problem descriptions (empty = valid).

    Accepts either a :class:`ProgressEvent` or its
    :meth:`~ProgressEvent.to_dict` wire form; ``make obs-smoke`` runs
    every event of a real run through this.
    """
    if isinstance(event, ProgressEvent):
        kind, payload = event.kind, event.payload
    else:
        payload = dict(event)
        kind = payload.pop("kind", None)
        payload.pop("elapsed", None)
        payload.pop("wall", None)
    problems: list[str] = []
    if kind not in EVENT_KINDS:
        problems.append(f"unknown event kind {kind!r}")
        return problems
    for key in _REQUIRED_PAYLOAD[kind]:
        if key not in payload:
            problems.append(f"{kind} event missing required field {key!r}")
    for key, value in payload.items():
        if key in _RESERVED_KEYS:
            problems.append(
                f"{kind} event payload uses reserved field {key!r}"
            )
        if value is not None and not isinstance(value, (bool, int, float, str)):
            problems.append(
                f"{kind} event field {key!r} is not a JSON scalar: {type(value).__name__}"
            )
    return problems


class ProgressEmitter:
    """Publishes :class:`ProgressEvent` records to subscribers.

    Thread-safe: the discovery service subscribes from handler threads
    while a job's driver thread emits.  A subscriber raising does
    not disturb the run — the exception is swallowed and the
    subscriber dropped (a broken progress bar must never kill a
    two-hour discovery).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: list[Callable[[ProgressEvent], None]] = []
        self._start = time.perf_counter()
        self.events_emitted = 0
        self.subscribers_dropped = 0

    # -- subscription ---------------------------------------------------

    def subscribe(self, callback: Callable[[ProgressEvent], None]) -> None:
        """Add a callback invoked (synchronously) for every event."""
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[ProgressEvent], None]) -> None:
        """Remove a previously subscribed callback (no-op if absent)."""
        with self._lock:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

    def queue(self, maxlen: int = 1024) -> "BoundedEventQueue":
        """Attach and return a bounded queue consumer."""
        consumer = BoundedEventQueue(maxlen=maxlen)
        self.subscribe(consumer.push)
        return consumer

    # -- emission -------------------------------------------------------

    def begin(self) -> None:
        """Restamp the elapsed-time origin (called at ``run_start``)."""
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since :meth:`begin` — the events' shared clock."""
        return time.perf_counter() - self._start

    def emit(self, kind: str, /, **payload: Any) -> ProgressEvent:
        """Build an event stamped *now* and deliver it to subscribers.

        ``kind`` is positional-only, and payload fields may not reuse
        the envelope names (``kind``/``elapsed``/``wall``) — the JSONL
        wire form flattens payload and envelope into one object, so a
        colliding key would corrupt the reloaded stream.
        """
        for reserved in _RESERVED_KEYS:
            if reserved in payload:
                raise ValueError(
                    f"event payload may not use reserved field {reserved!r}"
                )
        event = ProgressEvent(
            kind=kind,
            elapsed=time.perf_counter() - self._start,
            wall=time.time(),
            payload=payload,
        )
        with self._lock:
            subscribers = list(self._subscribers)
            self.events_emitted += 1
        for callback in subscribers:
            try:
                callback(event)
            except Exception:
                with self._lock:
                    self.subscribers_dropped += 1
                    try:
                        self._subscribers.remove(callback)
                    except ValueError:
                        pass
        return event


class BoundedEventQueue:
    """A drop-oldest event buffer for polling consumers.

    ``maxlen`` bounds memory no matter how slow the consumer is; the
    ``dropped`` counter records how many events fell off the front, so
    a consumer can tell a complete stream from a truncated one.
    """

    def __init__(self, maxlen: int = 1024) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self._lock = threading.Lock()
        self._events: deque[ProgressEvent] = deque()
        self.maxlen = maxlen
        self.dropped = 0

    def push(self, event: ProgressEvent) -> None:
        """Append an event, dropping the oldest when full."""
        with self._lock:
            if len(self._events) >= self.maxlen:
                self._events.popleft()
                self.dropped += 1
            self._events.append(event)

    def drain(self) -> list[ProgressEvent]:
        """Remove and return every buffered event (oldest first)."""
        with self._lock:
            events = list(self._events)
            self._events.clear()
        return events

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class JsonlEventWriter:
    """Stream events to a JSONL file a ``tail -f`` can follow.

    Each event is one :meth:`ProgressEvent.to_dict` JSON object per
    line, flushed immediately — the point is *live* visibility, and
    event rate is a handful per level, so buffering would only add
    latency.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w", encoding="utf-8")
        self._lock = threading.Lock()

    def __call__(self, event: ProgressEvent) -> None:
        """Subscriber interface: write one event line."""
        line = json.dumps(event.to_dict(), separators=(",", ":"))
        with self._lock:
            if not self._handle.closed:
                self._handle.write(line + "\n")
                self._handle.flush()

    def close(self) -> None:
        """Close the file (idempotent)."""
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


def load_events(path: str | Path) -> list[ProgressEvent]:
    """Read a :class:`JsonlEventWriter` file back into events."""
    events: list[ProgressEvent] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(ProgressEvent.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError) as error:
                raise ValueError(
                    f"{path}:{line_number}: not a valid event line: {error}"
                ) from error
    return events


__all__.append("load_events")


# ----------------------------------------------------------------------
# ETA estimation
# ----------------------------------------------------------------------


class EtaEstimator:
    """Live remaining-time estimate from the levelwise work structure.

    Model (see the module docstring for the rationale):

    * A level's duration is proportional to its *row-work* — the
      summed stripped partition sizes ``Σ‖π‖`` of the level, which
      both validity tests and the next level's partition products
      iterate over.  :class:`~repro.obs.search_hooks.ProgressHooks`
      measures this exactly when a level's partitions materialize.
    * The unit cost (seconds per row) shrinks as partitions break
      apart; an EMA of the observed per-level decay ``σ`` projects it
      forward, clamped to ``[sigma_floor, 1]``.
    * Future level sizes follow the lattice recurrence
      ``s_{ℓ+1} ≈ v_ℓ·(n-ℓ)/(ℓ+1)`` (``v_ℓ`` = surviving sets),
      damped by the observed survival ratio; future per-set row-work
      decays by an EMA ``ρ``.

    All smoothing constants are ordinary EMAs with ``alpha=0.5`` —
    levelwise runs have few, high-signal observations, so heavier
    smoothing just lags.
    """

    def __init__(
        self,
        num_attributes: int,
        *,
        alpha: float = 0.5,
        sigma_floor: float = 0.45,
        rho_floor: float = 0.25,
    ) -> None:
        self.num_attributes = num_attributes
        self.alpha = alpha
        self.sigma_floor = sigma_floor
        self.rho_floor = rho_floor
        # Completed-level observations.
        self._unit_cost: float | None = None  # seconds per work row
        self._sigma: float | None = None  # unit-cost decay per level
        self._rho: float | None = None  # per-set row-work decay
        self._survival: float = 1.0  # EMA of surviving/size
        self._per_set_work: float | None = None
        # Current level state.
        self._level: int = 0
        self._level_size: int = 0
        self._level_work: float = 0.0
        self._level_started: float = 0.0
        self._level_done_fraction: float = 0.0
        self.eta_seconds: float | None = None

    # -- observations ---------------------------------------------------

    def _ema(self, previous: float | None, value: float) -> float:
        if previous is None:
            return value
        return (1.0 - self.alpha) * previous + self.alpha * value

    def level_started(
        self, level: int, size: int, work_rows: int, elapsed: float
    ) -> None:
        """Level ``level`` begins: exact candidate count and row-work."""
        self._level = level
        self._level_size = max(size, 1)
        self._level_work = float(max(work_rows, 1))
        self._level_started = elapsed
        self._level_done_fraction = 0.0
        per_set = self._level_work / self._level_size
        if self._per_set_work:
            ratio = per_set / self._per_set_work
            self._rho = max(self._ema(self._rho, ratio), self.rho_floor)
        self._per_set_work = per_set
        self._refresh(elapsed)

    def level_finished(
        self, level: int, seconds: float, size: int, surviving: int, elapsed: float
    ) -> None:
        """Level ``level`` completed in ``seconds``; update the EMAs."""
        work = self._level_work if level == self._level else float(max(size, 1))
        unit = max(seconds, 1e-9) / max(work, 1.0)
        if self._unit_cost:
            self._sigma = min(
                max(self._ema(self._sigma, unit / self._unit_cost), self.sigma_floor),
                1.0,
            )
        self._unit_cost = unit
        if size > 0:
            self._survival = self._ema(self._survival, surviving / size)
        self._level_done_fraction = 1.0
        self._refresh(elapsed)

    def tick(self, elapsed: float, done_fraction: float | None = None) -> None:
        """Mid-level update: optionally how far along."""
        if done_fraction is not None:
            self._level_done_fraction = min(max(done_fraction, 0.0), 1.0)
        self._refresh(elapsed)

    # -- projection -----------------------------------------------------

    def _projected_sigma(self) -> float:
        return self._sigma if self._sigma is not None else 0.7

    def _projected_rho(self) -> float:
        return self._rho if self._rho is not None else 0.6

    def _refresh(self, elapsed: float) -> None:
        """Recompute :attr:`eta_seconds` from the current model state."""
        if self._unit_cost is None or not self._level:
            self.eta_seconds = None
            return
        sigma = self._projected_sigma()
        rho = self._projected_rho()
        n = self.num_attributes
        # Current level: projected duration at the projected unit cost,
        # minus what it has already consumed.
        unit = self._unit_cost * sigma
        current_total = self._level_work * unit
        in_level = max(elapsed - self._level_started, 0.0)
        if self._level_done_fraction >= 1.0:
            remaining = 0.0
        else:
            remaining = max(current_total - in_level, 0.0)
            if self._level_done_fraction > 0.0:
                # A mid-level completion signal refines the projection.
                remaining = min(
                    remaining, current_total * (1.0 - self._level_done_fraction)
                )
        # Future levels through the lattice recurrence.
        size = float(self._level_size)
        per_set = (self._per_set_work or 1.0) * rho
        level_unit = unit * sigma
        for k in range(self._level, n):
            size = min(
                size * self._survival * (n - k) / (k + 1), float(math.comb(n, k + 1))
            )
            if size < 1.0:
                break
            remaining += size * per_set * level_unit
            per_set *= rho
            level_unit *= sigma
        self.eta_seconds = remaining

    def projected_remaining_sets(self) -> int:
        """Candidate sets still ahead: current level + projected future.

        Future level sizes come from the same damped lattice recurrence
        the ETA projection uses; the number is an estimate, not a bound.
        """
        n = self.num_attributes
        size = float(self._level_size)
        total = self._level_size if self._level_done_fraction < 1.0 else 0
        for k in range(self._level, n):
            size = min(
                size * self._survival * (n - k) / (k + 1), float(math.comb(n, k + 1))
            )
            if size < 1.0:
                break
            total += int(size)
        return total


# ----------------------------------------------------------------------
# Module-level activation (mirrors repro.obs.trace)
# ----------------------------------------------------------------------

_ACTIVE = threading.local()
"""Thread-local activation slot.

A process-wide variable here was correct while one process ran one
discovery at a time, but a service runs overlapping jobs on separate
threads: with a shared slot, job B's activation captures job A's
events (cross-contaminated event streams), and the save/restore pairs
interleave so a finished job could reinstate a dead emitter as
"active" for a still-running one.  Thread-local state gives every job
thread its own activation."""


def events_enabled() -> bool:
    """True while an emitter is activated on this thread."""
    return getattr(_ACTIVE, "emitter", None) is not None


def active_emitter() -> ProgressEmitter | None:
    """The emitter activated on the current thread, if any."""
    return getattr(_ACTIVE, "emitter", None)


@contextmanager
def activated_events(emitter: ProgressEmitter) -> Iterator[ProgressEmitter]:
    """Scope ``emitter`` as this thread's active emitter."""
    previous = getattr(_ACTIVE, "emitter", None)
    _ACTIVE.emitter = emitter
    try:
        yield emitter
    finally:
        _ACTIVE.emitter = previous
