"""One benchmark run: write inputs, warm up, time, check, report.

A run goes through the public path a user takes — ``read_csv`` then
``discover`` — on relations of its own seeds:

1. Each call's relation is generated from its own pool seed and
   written as CSV before that call's timing starts.
2. One untimed warm-up call absorbs the first-call penalty (imports,
   allocator growth, numpy dispatch caches).
3. Each timed call reads its CSV ``reads_per_call`` times (each read
   is a ``setup_s`` sample) and discovers over the last read
   (``discover_s``).  The cover is checked against the recorded
   reference outside the timed region; a mismatch or an exception
   counts as a failed call and the run goes on.
4. Right before and right after each call, :func:`calibrate` times a
   fixed mix of work that shares no code with the program.

A run times a fixed number of calls, set by ``seconds`` and the
workload's nominal cost per call, never by how fast the host is: runs
of two commits with the same seed time the same relations.

The host's speed drifts by 20-40 % over minutes (its neighbours'
load), far more than a 25 % regression bound, and a longer run does
not average it out.  So ``discover_s`` and ``setup_s`` are given at
the reference host speed: each call's times are multiplied by
``REFERENCE_CALIBRATION_S`` over the calibration measured around that
call.  The calibration does not run program code, so a change to the
program moves these numbers exactly as it moves wall time, while the
host's drift cancels.  ``discover_s`` is the mean over the timed calls,
the time per call for a fixed set of relations.  The wall times are
printed beside them.  A traced run alternates untraced and traced
calls: the traced ones give the per-layer breakdown (in wall time),
and both together give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.results import SearchStatistics
from repro.core.tane import discover
from repro.datasets.csvio import read_csv, write_csv
from repro.fingerprint import dataset_fingerprint

from perfbench.layers import LAYERS, LayerTimer
from perfbench.workloads import Workload, cover_digest, load_references

__all__ = ["CallRecord", "REFERENCE_CALIBRATION_S", "calibrate", "run_workload"]

#: Seconds :func:`calibrate` takes on the reference host (a 2-core x86
#: virtual machine in a quiet spell).  It only sets the time unit.
REFERENCE_CALIBRATION_S = 0.05

_CALIBRATION_ARRAYS = [
    np.random.default_rng(0).integers(0, 20, size=60) for _ in range(64)
]

_SEARCH_COUNTS = (
    "validity_tests",
    "partition_products",
    "error_computations",
    "g3_bound_rejections",
)


@dataclass
class CallRecord:
    """What one ``read_csv`` + ``discover`` call measured."""

    reads_s: list[float]
    discover_s: float
    ok: bool
    fingerprint: str | None
    calibration_s: float = 0.0
    """Mean of the calibrations right before and right after the call."""
    timer: LayerTimer | None = None
    statistics: SearchStatistics | None = None
    dependencies: int = 0


def calibrate() -> float:
    """Seconds a fixed mix of work takes on this host right now.

    The mix is the kinds of work ``discover()`` spends its time on —
    interpreter arithmetic, dict and set churn, and numpy calls on small
    arrays — in about equal parts, so the host's drift slows it about
    as much as it slows interpreter-bound calls.  Numpy arithmetic on
    large arrays (``tall_exact``) slows about half as much.
    """
    start = time.perf_counter()
    total = 0
    for value in range(250_000):
        total += value ^ (value >> 3)
    groups: dict[int, list[int]] = {}
    for value in range(75_000):
        groups.setdefault(value * 7919 % 4099, []).append(value)
    total += len({frozenset(values[:3]) for values in groups.values()})
    for _ in range(20):
        for array in _CALIBRATION_ARRAYS:
            order = np.argsort(array, kind="stable")
            np.cumsum(np.unique(array[order], return_counts=True)[1])
    return time.perf_counter() - start


def _at_reference_speed(record: CallRecord, seconds: float) -> float:
    return seconds * REFERENCE_CALIBRATION_S / record.calibration_s


def _call(workload: Workload, seed: int, path: Path, smoke: bool, reference, traced: bool) -> CallRecord:
    record = CallRecord(
        reads_s=[],
        discover_s=0.0,
        ok=False,
        fingerprint=None,
        timer=LayerTimer() if traced else None,
    )
    config = workload.configuration(smoke)
    gc.collect()
    calibration_s = calibrate()
    try:
        for _ in range(workload.reads_per_call):
            start = time.perf_counter()
            relation = read_csv(path)
            record.reads_s.append(time.perf_counter() - start)
        record.fingerprint = dataset_fingerprint(relation)
        # The wrappers go in before the clock starts and come out after it stops.
        wrapped = record.timer.installed() if record.timer else contextlib.nullcontext()
        with wrapped:
            start = time.perf_counter()
            result = discover(relation, config)
            record.discover_s = time.perf_counter() - start
    except Exception:  # a failed call is counted, not fatal
        print(f"{workload.name} seed {seed}: the call raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return record
    record.statistics = result.statistics
    record.dependencies = len(result.dependencies)
    digest = cover_digest(result.dependencies)
    del result, relation
    gc.collect()
    record.calibration_s = (calibration_s + calibrate()) / 2
    record.ok = reference is not None and digest == reference["digest"]
    if not record.ok:
        print(
            f"{workload.name} seed {seed}: cover {digest[:12]} "
            f"({record.dependencies} dependencies) differs from the reference "
            f"{reference}",
            file=sys.stderr,
        )
    return record


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _layer_metrics(traced: list[CallRecord], untraced: list[CallRecord]) -> dict:
    """Per-call means over the traced calls, so they add up exactly."""
    metrics: dict[str, tuple[float, str]] = {}
    wall = _mean(r.discover_s for r in traced)
    layered = 0.0
    for layer in LAYERS:
        self_s = _mean(r.timer.self_s[layer] for r in traced)
        layered += self_s
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.calls"] = (_mean(r.timer.calls[layer] for r in traced), "count")
    metrics["scheduler.self_s"] = (wall - layered, "s")
    stats = [r.statistics for r in traced if r.statistics is not None]
    metrics["store.peak_resident_mb"] = (
        _mean(s.peak_resident_bytes for s in stats) / 2**20,
        "MB",
    )
    for name in _SEARCH_COUNTS:
        metrics[f"search.{name}"] = (_mean(getattr(s, name) for s in stats), "count")
    dependencies = _mean(r.dependencies for r in traced if r.statistics is not None)
    metrics["search.dependencies"] = (dependencies, "count")
    tests = metrics["search.validity_tests"][0]
    metrics["search.useful_test_ratio"] = (dependencies / tests if tests else 0.0, "ratio")
    metrics["trace.discover_s"] = (wall, "s")
    untraced_wall = _mean(r.discover_s for r in untraced)
    metrics["trace.overhead_frac"] = (
        wall / untraced_wall - 1.0 if untraced_wall else 0.0,
        "ratio",
    )
    metrics["host.calibration_s"] = (_mean(r.calibration_s for r in traced + untraced), "s")
    return metrics


def run_workload(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    workdir: Path,
) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and summary lines."""
    scale = "smoke" if smoke else "full"
    references = load_references().get(scale, {}).get(workload.name, {})
    records: list[CallRecord] = []
    for position, call_seed in enumerate(workload.call_seeds(seed, seconds, smoke)):
        path = workdir / f"{workload.name}-{scale}-{call_seed}.csv"
        write_csv(workload.build(call_seed, smoke), path)
        # Position 0 is the warm-up; traced runs trace every second call.
        traced = trace and position > 0 and position % 2 == 0
        records.append(
            _call(workload, call_seed, path, smoke, references.get(str(call_seed)), traced)
        )
        path.unlink()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    timed_records = [r for r in records[1:] if r.ok]
    traced_records = [r for r in timed_records if r.timer is not None]
    untraced_records = [r for r in timed_records if r.timer is None]
    failed = sum(not r.ok for r in records)
    fingerprints = [r.fingerprint for r in records if r.fingerprint is not None]
    distinct = len(set(fingerprints)) == len(fingerprints)
    if not distinct:
        print(f"{workload.name}: two calls of one run saw the same relation", file=sys.stderr)
    reads = [read for r in timed_records for read in r.reads_s]
    calibration_s = _mean(r.calibration_s for r in timed_records)

    if not (traced_records if trace else timed_records):
        metrics = {}  # no timed call succeeded: nothing to report
    elif trace:
        metrics = _layer_metrics(traced_records, untraced_records)
    else:
        metrics = {
            "discover_s": (
                statistics.fmean(_at_reference_speed(r, r.discover_s) for r in timed_records),
                "s",
            ),
            "setup_s": (
                statistics.median(
                    _at_reference_speed(r, read) for r in timed_records for read in r.reads_s
                ),
                "s",
            ),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": failed == 0 and distinct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    summary = [
        f"{workload.name} (seed {seed}, {scale} scale): {len(records) - 1} timed calls "
        f"after 1 warm-up, tracing {'on' if trace else 'off'}",
    ]
    if metrics and not trace:
        summary.append(
            f"  discover_s   {metrics['discover_s'][0]:.4f} s (mean of {len(timed_records)} calls "
            f"at the reference speed; wall mean "
            f"{_mean(r.discover_s for r in timed_records):.4f} s)"
        )
        summary.append(
            f"  setup_s      {metrics['setup_s'][0]:.4f} s (median of {len(reads)} reads "
            f"at the reference speed; wall median {statistics.median(reads):.4f} s)"
        )
        summary.append(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
        summary.append(
            f"  calibration  {calibration_s:.4f} s a call on this host, "
            f"{REFERENCE_CALIBRATION_S} s on the reference host"
        )
    else:
        for name, (value, unit) in metrics.items():
            summary.append(f"  {name:<28} {value:.6g} {unit}")
    summary.append("  call times   " + " ".join(f"{r.discover_s:.3f}" for r in timed_records))
    summary.append(f"  failed_frac  {failed / len(records):.3f} ({failed} of {len(records)} calls)")
    return result, summary
