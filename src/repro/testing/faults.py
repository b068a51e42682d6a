"""Fault injection for resilience testing.

The harness has two halves, matching the two kinds of faults a
long-running discovery meets:

**In-process faults** — :func:`inject` arms a named *fault point*
(``"store.spill"``, ``"checkpoint.save"``, ``"tane.level.start"``,
...) to raise an exception or deliver a signal the next ``times`` it
is reached.  Production code marks its crash-prone points with
:func:`check`; when nothing is armed the call is a single falsy-dict
test, so the hooks are free in normal runs.

**Result corruption** — :func:`inject_mutation` arms a *mutation
point* (``"tane.validity.outcome"``) with a transform applied to the
value flowing through :func:`mutate`.  Where :func:`check` models a
component that *crashes*, :func:`mutate` models one that *silently
computes the wrong answer* — the failure mode the differential
verification harness (:mod:`repro.verify`) exists to catch, and the
one its own tests use to prove the harness detects, shrinks, and
serializes real engine bugs.

**Cross-process worker faults** — pool workers are separate processes,
so arming must survive the fork.  :func:`arm_worker_faults` drops
*token files* into a directory and exports its path (plus the driver's
pid) through the environment; :func:`maybe_fire_worker_fault`, called
by the worker entry point, atomically claims one token (``os.unlink``
— exactly one process wins each) and performs its action: ``kill``
tokens SIGKILL the worker mid-chunk, ``raise`` tokens raise
:class:`WorkerFaultError`.  The driver's own pid is guarded, so the
serial fallback path in the executor never self-destructs.

File-corruption helpers (:func:`truncate_file`, :func:`corrupt_file`)
round out the crash-path toolkit for spill/checkpoint file tests.

This module deliberately imports nothing from the rest of the library
(production modules import *it*), and keeps no state beyond the plan
dict and two environment variables.
"""

from __future__ import annotations

import os
import signal as _signal
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

__all__ = [
    "WorkerFaultError",
    "check",
    "inject",
    "mutate",
    "mutation_armed",
    "inject_mutation",
    "armed_points",
    "arm_worker_faults",
    "disarm_worker_faults",
    "maybe_fire_worker_fault",
    "pending_worker_faults",
    "truncate_file",
    "corrupt_file",
]

_ENV_TOKEN_DIR = "REPRO_FAULT_TOKEN_DIR"
_ENV_GUARD_PID = "REPRO_FAULT_GUARD_PID"


class WorkerFaultError(RuntimeError):
    """The exception an armed ``raise`` token throws inside a worker."""


class _Armed:
    """One armed in-process fault point."""

    __slots__ = ("remaining", "error", "signum")

    def __init__(
        self,
        remaining: int,
        error: BaseException | Callable[[], BaseException] | None,
        signum: int | None,
    ) -> None:
        self.remaining = remaining
        self.error = error
        self.signum = signum


_PLAN: dict[str, _Armed] = {}


def check(point: str) -> None:
    """Fire the fault armed at ``point``, if any (the production hook).

    With an empty plan this is one dict truthiness test — the entire
    cost of the harness in normal operation.
    """
    if not _PLAN:
        return
    armed = _PLAN.get(point)
    if armed is None or armed.remaining <= 0:
        return
    armed.remaining -= 1
    if armed.signum is not None:
        os.kill(os.getpid(), armed.signum)
        return
    error = armed.error
    if callable(error):
        raise error()
    if error is not None:
        raise error
    raise WorkerFaultError(f"injected fault at {point!r}")


@contextmanager
def inject(
    point: str,
    error: BaseException | Callable[[], BaseException] | None = None,
    *,
    times: int = 1,
    signum: int | None = None,
) -> Iterator[None]:
    """Arm ``point`` to fail the next ``times`` it is checked.

    ``error`` may be an exception instance, a zero-argument factory,
    or ``None`` (a :class:`WorkerFaultError` naming the point).
    ``signum`` delivers a signal to the current process instead of
    raising.  Always disarms on exit, even when the block raises.
    """
    previous = _PLAN.get(point)
    _PLAN[point] = _Armed(times, error, signum)
    try:
        yield
    finally:
        if previous is None:
            _PLAN.pop(point, None)
        else:
            _PLAN[point] = previous


def armed_points() -> dict[str, int]:
    """Remaining fire counts per armed point (diagnostics in tests)."""
    return {point: armed.remaining for point, armed in _PLAN.items() if armed.remaining > 0}


class _ArmedMutator:
    """One armed result-corrupting mutation point."""

    __slots__ = ("remaining", "transform")

    def __init__(self, remaining: int, transform: Callable[[object], object]) -> None:
        self.remaining = remaining
        self.transform = transform


_MUTATIONS: dict[str, _ArmedMutator] = {}


def mutate(point: str, value):
    """Pass ``value`` through the mutation armed at ``point``, if any.

    The production hook for *silent-corruption* faults: values flow
    through unchanged (one falsy-dict test) unless a test armed the
    point with :func:`inject_mutation`, in which case the armed
    transform rewrites the value for its next ``times`` passages.
    """
    if not _MUTATIONS:
        return value
    armed = _MUTATIONS.get(point)
    if armed is None or armed.remaining <= 0:
        return value
    armed.remaining -= 1
    return armed.transform(value)


def mutation_armed(point: str) -> bool:
    """Whether :func:`mutate` would currently rewrite values at ``point``.

    Lets a caller that decides many values at once in bulk skip
    building the per-value objects :func:`mutate` takes, unless a test
    armed the point.
    """
    armed = _MUTATIONS.get(point)
    return armed is not None and armed.remaining > 0


@contextmanager
def inject_mutation(
    point: str,
    transform: Callable[[object], object],
    *,
    times: int = 1,
) -> Iterator[None]:
    """Arm ``point`` to corrupt the next ``times`` values it sees.

    ``transform`` receives the value passed to :func:`mutate` and
    returns its corrupted replacement — e.g. flipping a validity
    outcome to fake a buggy engine.  Always disarms on exit.
    """
    previous = _MUTATIONS.get(point)
    _MUTATIONS[point] = _ArmedMutator(times, transform)
    try:
        yield
    finally:
        if previous is None:
            _MUTATIONS.pop(point, None)
        else:
            _MUTATIONS[point] = previous


# ----------------------------------------------------------------------
# Cross-process worker faults (token files + environment)
# ----------------------------------------------------------------------


def arm_worker_faults(directory: str | Path, *, kills: int = 0, raises: int = 0) -> Path:
    """Arm pool workers to die or raise while running chunks.

    Creates ``kills`` SIGKILL tokens and ``raises`` exception tokens
    in ``directory`` and exports the directory (and the current pid as
    the protected *driver* pid) through the environment, so workers
    forked afterwards — including respawned pools — inherit the plan.
    Each token fires exactly once across all workers.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    for index in range(kills):
        (path / f"kill-{index:04d}.token").touch()
    for index in range(raises):
        (path / f"raise-{index:04d}.token").touch()
    os.environ[_ENV_TOKEN_DIR] = str(path)
    os.environ[_ENV_GUARD_PID] = str(os.getpid())
    return path


def disarm_worker_faults() -> None:
    """Stop firing worker faults (leftover tokens become inert)."""
    os.environ.pop(_ENV_TOKEN_DIR, None)
    os.environ.pop(_ENV_GUARD_PID, None)


def pending_worker_faults() -> int:
    """Unclaimed worker-fault tokens (0 when disarmed)."""
    directory = os.environ.get(_ENV_TOKEN_DIR)
    if not directory:
        return 0
    try:
        return sum(1 for name in os.listdir(directory) if name.endswith(".token"))
    except OSError:
        return 0


def maybe_fire_worker_fault() -> None:
    """Claim and fire one worker-fault token (the worker-side hook).

    Called at the top of the pool's chunk entry point.  Disarmed (the
    usual case) this is one environment lookup.  The driver pid named
    at arm time never fires a token, so the executor's in-process
    serial fallback survives a plan that kills every worker.
    """
    directory = os.environ.get(_ENV_TOKEN_DIR)
    if not directory:
        return
    if os.environ.get(_ENV_GUARD_PID) == str(os.getpid()):
        return
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return
    for name in names:
        if not name.endswith(".token"):
            continue
        try:
            os.unlink(os.path.join(directory, name))
        except OSError:
            continue  # another worker claimed it first
        if name.startswith("kill-"):
            os.kill(os.getpid(), _signal.SIGKILL)
        raise WorkerFaultError(f"injected worker fault ({name})")


# ----------------------------------------------------------------------
# File corruption helpers
# ----------------------------------------------------------------------


def truncate_file(path: str | Path, keep_bytes: int) -> None:
    """Truncate ``path`` to its first ``keep_bytes`` bytes."""
    with Path(path).open("rb+") as handle:
        handle.truncate(keep_bytes)


def corrupt_file(path: str | Path, *, offset: int = 0, payload: bytes = b"\xff" * 16) -> None:
    """Overwrite ``len(payload)`` bytes of ``path`` at ``offset``."""
    with Path(path).open("rb+") as handle:
        handle.seek(offset)
        handle.write(payload)
