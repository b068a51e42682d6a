"""Measurement utilities and scale selection for the bench workloads.

The paper ran a C implementation on a 233 MHz Pentium; this is pure
Python, so absolute times differ and the workloads scale their inputs.
``BenchScale`` centralizes the knobs:

* ``smoke`` — only the fast datasets at tiny replication, for tests.
* ``quick`` (default) — every experiment finishes in seconds to a few
  minutes on a laptop; replication factors and the FDEP row caps are
  reduced.
* ``full`` — the paper's parameters (×512 replication, 48842-row
  Adult); hours in pure Python, for record-setting runs only.

Select via the ``REPRO_BENCH_SCALE`` environment variable or the
``scale=`` argument of each workload.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.exceptions import ConfigurationError

__all__ = ["BenchScale", "SCALES", "resolve_scale", "measure", "Measurement"]

T = TypeVar("T")


_ALL_TABLE1 = ("lymphography", "hepatitis", "wisconsin", "adult", "chess")
_ALL_TABLE2 = ("lymphography", "hepatitis", "wisconsin", "wisconsin xN", "chess")
_ALL_FIGURE3 = ("hepatitis", "wisconsin", "chess")


@dataclass(frozen=True)
class BenchScale:
    """Input-size knobs shared by the workloads."""

    name: str
    wbc_multiples: tuple[int, ...]
    """Replication factors for the "Wisconsin breast cancer × n" runs."""

    fdep_row_cap: int
    """FDEP is Ω(|r|²); above this row count it is reported infeasible
    (the paper likewise stars out FDEP beyond ×64)."""

    tane_row_cap: int
    """TANE runs above this row count are skipped (quick mode only)."""

    adult_rows: int
    """Row count for the Adult-shaped dataset."""

    approx_epsilons: tuple[float, ...] = (0.0, 0.01, 0.05, 0.25, 0.5)
    """The ε grid of Table 2."""

    table1_datasets: tuple[str, ...] = _ALL_TABLE1
    """Datasets included in the Table 1 run."""

    table2_datasets: tuple[str, ...] = _ALL_TABLE2
    """Datasets included in the Table 2 run (``wisconsin xN`` expands to
    the scale's largest replication multiple)."""

    figure3_datasets: tuple[str, ...] = _ALL_FIGURE3
    """Datasets included in the Figure 3 sweep (the paper plots
    Hepatitis, Wisconsin breast cancer, and Chess)."""


SCALES = {
    # For test runs: only the fast datasets, tiny replication.
    "smoke": BenchScale(
        name="smoke",
        wbc_multiples=(1, 2),
        fdep_row_cap=1_500,
        tane_row_cap=5_000,
        adult_rows=500,
        approx_epsilons=(0.0, 0.25),
        table1_datasets=("wisconsin", "adult"),
        table2_datasets=("wisconsin",),
        figure3_datasets=("wisconsin",),
    ),
    "quick": BenchScale(
        name="quick",
        wbc_multiples=(1, 2, 4, 8, 16),
        fdep_row_cap=3_000,
        tane_row_cap=100_000,
        adult_rows=6_000,
    ),
    "medium": BenchScale(
        name="medium",
        wbc_multiples=(1, 4, 16, 64),
        fdep_row_cap=6_000,
        tane_row_cap=200_000,
        adult_rows=20_000,
    ),
    "full": BenchScale(
        name="full",
        wbc_multiples=(1, 4, 16, 64, 128, 512),
        fdep_row_cap=45_000,
        tane_row_cap=400_000,
        adult_rows=48_842,
    ),
}


def resolve_scale(scale: str | BenchScale | None = None) -> BenchScale:
    """Resolve a scale name (or ``REPRO_BENCH_SCALE``) to a BenchScale."""
    if isinstance(scale, BenchScale):
        return scale
    if scale is None:
        scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    try:
        return SCALES[scale]
    except KeyError:
        raise ConfigurationError(
            f"unknown bench scale {scale!r}; known: {sorted(SCALES)}"
        ) from None


@dataclass(frozen=True)
class Measurement:
    """A timed call: wall-clock seconds plus the call's result."""

    seconds: float
    result: Any


def measure(function: Callable[[], T]) -> Measurement:
    """Run ``function`` once under a wall-clock timer.

    The paper reports single-run wall-clock ("real") times; discovery
    runs are long enough that one observation is stable, and
    pytest-benchmark provides repetition where it matters.
    """
    start = time.perf_counter()
    result = function()
    elapsed = time.perf_counter() - start
    return Measurement(seconds=elapsed, result=result)
