"""Single-core hot-path benchmark: batched products + partition cache.

Usage::

    PYTHONPATH=src python benchmarks/run_hotpath_bench.py
        [--target-rows 30000] [--repeats 5] [--cache-levels 3]

Runs serial exact discovery on the wisconsin shape replicated to
``target-rows`` (the same recipe as ``run_refactor_overhead.py``)
under three configurations of the product hot path:

* ``triple``  — the per-triple loop (:class:`PerTripleExecutor`, one
  ``product`` call per triple), the pre-batching baseline;
* ``batched`` — the level-batched kernel (the default);
* ``warm_cache`` — the batched kernel plus a pre-warmed private
  :class:`~repro.partition.cache.PartitionCache` holding the low
  lattice levels, the steady state of repeated discovery over one
  relation (verification matrix, sweeps, resumed runs).

All three must return identical dependencies (asserted); the JSON
written to ``benchmarks/results/BENCH_hotpath.json`` records every
sample plus the medians and the improvement *ratios* —
``tools/check_bench_regression.py`` gates CI on the ratios, which
transfer across hosts where absolute seconds do not.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.core.tane import TaneConfig, discover
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.uci import make_wisconsin_like
from repro.parallel.executor import SerialLevelExecutor
from repro.partition.cache import PartitionCache

RESULTS = Path(__file__).parent / "results"
IMPROVEMENT_THRESHOLD = 1.3
"""The combined batched+cache hot path must beat the per-triple
baseline by at least this factor on the reference workload."""


class PerTripleExecutor(SerialLevelExecutor):
    """The serial executor with the one-product-at-a-time loop."""

    def products(self, triples, fetch, workspace):
        for candidate, factor_x, factor_y in triples:
            yield candidate, fetch(factor_x).product(fetch(factor_y), workspace)


def build_relation(target_rows: int):
    base = make_wisconsin_like(seed=0)
    copies = -(-target_rows // base.num_rows)  # ceil division
    return replicate_with_unique_suffix(base, copies)


def measure(relation, config: TaneConfig, repeats: int):
    samples: list[float] = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = discover(relation, config)
        samples.append(time.perf_counter() - start)
    return samples, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target-rows", type=int, default=30000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--cache-levels", type=int, default=3)
    args = parser.parse_args(argv)

    relation = build_relation(args.target_rows)
    print(f"workload: {relation.num_rows} rows x {relation.num_attributes} attrs")

    cache = PartitionCache()
    warm_config = TaneConfig(
        partition_cache=cache, partition_cache_levels=args.cache_levels
    )
    discover(relation, warm_config)  # populate the cache once
    configs = [
        ("triple", TaneConfig(executor=PerTripleExecutor())),
        ("batched", TaneConfig()),
        ("warm_cache", warm_config),
    ]
    runs: dict[str, dict[str, object]] = {}
    dependency_counts: dict[str, int] = {}
    for name, config in configs:
        samples, result = measure(relation, config, args.repeats)
        median = statistics.median(samples)
        stats = result.statistics
        runs[name] = {
            "runs_s": [round(s, 4) for s in samples],
            "median_s": median,
            "partition_products": stats.partition_products,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        }
        dependency_counts[name] = len(result.dependencies)
        print(f"{name:>11}: median {median:.4f}s over {args.repeats} runs "
              f"(products={stats.partition_products}, hits={stats.cache_hits})")

    triple_median = runs["triple"]["median_s"]
    batched_ratio = triple_median / runs["batched"]["median_s"]
    combined_ratio = triple_median / runs["warm_cache"]["median_s"]

    payload = {
        "benchmark": "hotpath",
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "hardware": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "workload": {
            "dataset": "wisconsin, unique-suffix replicated",
            "rows": relation.num_rows,
            "attributes": relation.num_attributes,
            "repeats": args.repeats,
            "cache_levels": args.cache_levels,
            "config": "serial, exact, memory store",
        },
        "runs": runs,
        "dependencies": dependency_counts["triple"],
        "batched_improvement": round(batched_ratio, 4),
        "combined_improvement": round(combined_ratio, 4),
        "improvement_threshold": IMPROVEMENT_THRESHOLD,
        "within_threshold": combined_ratio >= IMPROVEMENT_THRESHOLD,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "BENCH_hotpath.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print(f"batched kernel:  {batched_ratio:.3f}x vs per-triple")
    print(f"batched + cache: {combined_ratio:.3f}x vs per-triple "
          f"(threshold {IMPROVEMENT_THRESHOLD}x)")
    print(f"written: {out}")
    if len(set(dependency_counts.values())) != 1:
        print(f"FAIL: dependency counts diverged: {dependency_counts}",
              file=sys.stderr)
        return 1
    if combined_ratio < IMPROVEMENT_THRESHOLD:
        print(f"FAIL: combined improvement {combined_ratio:.3f}x < "
              f"{IMPROVEMENT_THRESHOLD}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
