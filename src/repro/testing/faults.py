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

File-corruption helpers (:func:`truncate_file`, :func:`corrupt_file`)
round out the crash-path toolkit for spill/checkpoint file tests.

This module deliberately imports nothing from the rest of the library
(production modules import *it*), and keeps no state beyond the plan
and mutation dicts.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

__all__ = [
    "InjectedFault",
    "check",
    "inject",
    "mutate",
    "mutation_armed",
    "inject_mutation",
    "armed_points",
    "truncate_file",
    "corrupt_file",
]


class InjectedFault(RuntimeError):
    """The exception a fault point armed without an explicit error raises."""


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
    raise InjectedFault(f"injected fault at {point!r}")


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
    or ``None`` (an :class:`InjectedFault` naming the point).
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
