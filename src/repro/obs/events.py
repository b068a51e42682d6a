"""Live progress: the ``--progress`` line as a view of the span stream.

The tracer's open/close records (:mod:`repro.obs.trace`) are the run's
one telemetry stream.  :class:`ProgressLine` is a sink on it that turns
the ``discover`` / ``level`` / phase / ``node_batch`` records into a
one-line stderr display with a live remaining-time estimate.

ETA estimation
--------------
:class:`EtaEstimator` turns the stream into a live remaining-time
estimate.  The levelwise structure makes this far better informed than
a generic progress bar: when level ℓ opens, its candidate count is
exact (``s_l`` on the open record) and its partitions are materialized,
so the estimator measures the level's *row-work* (the summed stripped
partition sizes ``Σ‖π‖``, which is what validity tests and partition
products actually iterate over — ``work_rows`` on the open record)
instead of guessing from set counts.  Costs per row shrink as
partitions break apart up the lattice, so the estimator tracks an EMA
of the per-level unit-cost decay and of the per-set row-work decay,
projects future level sizes through the lattice recurrence
``s_{ℓ+1} ≈ v_ℓ·(n-ℓ)/(ℓ+1)`` (``v_ℓ`` = sets surviving pruning), and
sums the projected level durations.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.trace import Span

__all__ = ["BATCH_LINE_TESTS", "EtaEstimator", "ProgressLine"]


# ----------------------------------------------------------------------
# ETA estimation
# ----------------------------------------------------------------------


class EtaEstimator:
    """Live remaining-time estimate from the levelwise work structure.

    Model (see the module docstring for the rationale):

    * A level's duration is proportional to its *row-work* — the
      summed stripped partition sizes ``Σ‖π‖`` of the level, which
      both validity tests and the next level's partition products
      iterate over.  :class:`~repro.obs.search_hooks.TracingHooks`
      measures it at the level boundary and puts it on the level's
      open record.
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


_PHASES = frozenset({"compute_dependencies", "prune", "generate_next_level"})

BATCH_LINE_TESTS = 64
"""Validity tests per piped ``batch`` line: the dfd walk's reclaim
cadence (:attr:`repro.search.dfd.DfdStrategy.RECLAIM_TESTS`)."""


class ProgressLine:
    """Render the span stream as a live one-line progress display.

    On a TTY the line is redrawn in place (``\\r``); on a pipe only
    level starts, the node batch that carries the test total past each
    further multiple of :data:`BATCH_LINE_TESTS`, and the run's end are
    printed, one line each, so redirected output stays readable and a
    long walk logs one line per 64 tests, not one per batch.  Level
    open records feed :attr:`estimator`; dfd walks have no level
    structure, so their line degrades to monotone test and dependency
    counts.
    """

    def __init__(self, stream) -> None:
        self._stream = stream
        self._live = bool(getattr(stream, "isatty", lambda: False)())
        self._width = 0
        self._origin = 0.0
        self._rows = 0
        self.estimator = EtaEstimator(0)
        self.level = 0
        self.size = 0
        self.phase = ""
        self.tested = 0
        """Candidate sets in the levels completed so far."""
        self._node_mode = False
        self._dependencies = 0

    def record(self, span: "Span") -> None:
        """Update the display from one open or close record."""
        attrs = span.attributes
        opened = span.end is None
        now = span.start if opened else span.end
        elapsed = now - self._origin
        if span.name == "discover":
            if opened:
                self._origin = span.start
                self._rows = int(attrs.get("rows", 0))
                self.estimator = EtaEstimator(int(attrs.get("attributes", 0)))
                self.tested = 0
                self._node_mode = False
            else:
                status = "done" if attrs.get("ok") else "FAILED"
                self._finish(
                    f"{status} in {span.duration:.2f}s: "
                    f"{attrs.get('dependencies', 0)} dependencies, "
                    f"{attrs.get('keys', 0)} keys"
                )
        elif span.name == "level":
            if opened:
                self.level = int(attrs["level"])
                self.size = int(attrs["s_l"])
                self.phase = ""
                work = attrs.get("work_rows")
                if work is None:
                    # Level 1, a resumed level, or partitions not all
                    # resident: ‖π̂‖ <= rows for every set, so rows x s_l
                    # bounds the row-work.
                    work = self._rows * max(self.size, 1)
                self.estimator.level_started(self.level, self.size, work, elapsed)
                self._draw(elapsed, always=True)
            else:
                self.estimator.level_finished(
                    self.level,
                    span.duration,
                    self.size,
                    int(attrs.get("surviving", 0)),
                    elapsed,
                )
                self.tested += self.size
        elif span.name in _PHASES:
            if opened:
                self.phase = span.name
            else:
                self.estimator.tick(elapsed)
            self._draw(elapsed)
        elif span.name == "node_batch" and not opened:
            self._node_mode = True
            self.level = int(attrs["batch"]) + 1
            tested = int(attrs["tests_total"])
            crossed = tested // BATCH_LINE_TESTS > self.tested // BATCH_LINE_TESTS
            self.tested = tested
            self._dependencies = int(attrs["dependencies_total"])
            self._draw(elapsed, always=crossed)

    def flush(self) -> None:
        """Every line is flushed as it is drawn."""

    def close(self) -> None:
        """The stream belongs to the caller."""

    def _line(self, elapsed: float) -> str:
        if self._node_mode:
            return (
                f"[{elapsed:6.1f}s] batch {self.level} | "
                f"tested {self.tested} | "
                f"{self._dependencies} dependencies"
            )
        parts = [f"[{elapsed:6.1f}s] level {self.level} ({self.size} sets)"]
        if self.phase:
            parts.append(self.phase)
        parts.append(f"tested {self.tested}")
        remaining = self.estimator.projected_remaining_sets()
        if remaining:
            parts.append(f"~{remaining} remaining")
        if self.estimator.eta_seconds is not None:
            parts.append(f"eta {self.estimator.eta_seconds:.1f}s")
        return " | ".join(parts)

    def _draw(self, elapsed: float, always: bool = False) -> None:
        line = self._line(elapsed)
        if self._live:
            pad = " " * max(0, self._width - len(line))
            self._stream.write("\r" + line + pad)
            self._stream.flush()
            self._width = len(line)
        elif always:
            self._stream.write(line + "\n")
            self._stream.flush()

    def _finish(self, line: str) -> None:
        if self._live and self._width:
            pad = " " * max(0, self._width - len(line))
            self._stream.write("\r" + line + pad + "\n")
        else:
            self._stream.write(line + "\n")
        self._stream.flush()
