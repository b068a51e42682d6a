"""Command-line interface: ``repro`` (or ``python -m repro``).

Subcommands
-----------
``discover``
    Find minimal (approximate) functional dependencies in a CSV file.
``keys``
    Find minimal (approximate) unique column combinations.
``profile``
    Full profile of a CSV file: columns, dependencies, keys, normal
    forms.
``bench``
    Regenerate one of the paper's tables/figures.
``dataset``
    Materialize one of the built-in benchmark datasets as CSV.
``trace-report``
    Render a ``--trace`` JSONL file as per-level phase timings and
    store I/O, or a node-batch summary for node-engine runs
    (``--profile`` adds the sampling profiler's tables from the same
    file).
``export-metrics``
    Convert a ``--metrics-snapshots`` JSONL file into Prometheus text
    exposition.
``verify``
    Fuzz the configuration matrix: run seeded synthetic relations
    through every engine/store/checkpoint/tracing/ablation cell, diff
    the results cell-by-cell and against independent oracles, apply
    metamorphic transformations, and serialize shrunk repro cases for
    any mismatch.
``serve``
    Run the discovery service: an HTTP API for registering datasets
    and submitting discovery jobs, with result caching, single-flight
    dedup, and live progress streaming (see docs/SERVICE.md).
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections.abc import Sequence

from repro.analysis.profile import profile
from repro.bench.harness import SCALES
from repro.core.tane import TaneConfig, discover
from repro.datasets.csvio import read_csv, write_csv
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.uci import DATASET_BUILDERS, uci_dataset
from repro.exceptions import DataError, ReproError
from repro.search.measures import MEASURES

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TANE: discovery of functional and approximate dependencies (ICDE 1998)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    discover_parser = subparsers.add_parser(
        "discover", help="find minimal dependencies in a CSV file"
    )
    discover_parser.add_argument("csv", help="input CSV file")
    discover_parser.add_argument("--epsilon", type=float, default=0.0,
                                 help="error threshold (0 = exact, default)")
    discover_parser.add_argument("--measure", choices=sorted(MEASURES), default="g3",
                                 help="error measure for approximate discovery: "
                                      "the paper's g3, Kivinen & Mannila's "
                                      "g1/g2, or the score measures pdep, tau, "
                                      "mu_plus, fi, rfi (error = 1 - score; "
                                      "see docs/MEASURES.md)")
    discover_parser.add_argument("--max-lhs", type=int, default=None,
                                 help="left-hand-side size limit |X|")
    discover_parser.add_argument("--store", choices=["memory", "disk"], default="memory",
                                 help="partition store: memory (TANE/MEM) or disk (TANE)")
    discover_parser.add_argument("--engine", choices=["vectorized", "pure"],
                                 default="vectorized",
                                 help="partition engine: vectorized CSR arrays "
                                      "(default) or the pure reference "
                                      "implementation")
    discover_parser.add_argument("--strategy",
                                 choices=["levelwise", "topk", "dfd"],
                                 default="levelwise",
                                 help="lattice traversal: the full levelwise "
                                      "walk (default), top-k (stops early and "
                                      "returns only the k best minimal "
                                      "dependencies), or dfd (a seeded "
                                      "depth-first random walk per right-hand "
                                      "side)")
    discover_parser.add_argument("-k", "--top-k", type=int, default=0,
                                 help="number of dependencies to keep with "
                                      "--strategy topk")
    discover_parser.add_argument("--topk-rank", choices=["error", "redundancy"],
                                 default="error",
                                 help="top-k ranking: lowest error (default) "
                                      "or redundancy-aware, which penalizes "
                                      "near-duplicate dependencies so the k "
                                      "results cover distinct structure")
    discover_parser.add_argument("--dfd-seed", type=int, default=0,
                                 help="random-walk seed for --strategy dfd "
                                      "(same seed => identical walk)")
    discover_parser.add_argument("--partition-cache", action="store_true",
                                 help="reuse singleton/low-level partitions "
                                      "across runs in this process via the "
                                      "shared partition cache")
    discover_parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                                 help="checkpoint the search to DIR after every "
                                      "completed level")
    discover_parser.add_argument("--resume", action="store_true",
                                 help="resume from the checkpoint in "
                                      "--checkpoint-dir instead of starting over")
    discover_parser.add_argument("--no-header", action="store_true",
                                 help="CSV file has no header row")
    discover_parser.add_argument("--stats", action="store_true",
                                 help="print search statistics")
    discover_parser.add_argument("--trace", metavar="JSONL", default=None,
                                 help="write a span trace of the run to this "
                                      "JSONL file (inspect with 'repro trace-report')")
    discover_parser.add_argument("--log-level", choices=_LOG_LEVELS, default=None,
                                 help="additionally stream spans through the "
                                      "'repro.obs' logger at this level")
    discover_parser.add_argument("--progress", action="store_true",
                                 help="live progress line on stderr: level, "
                                      "candidates tested/remaining, ETA")
    discover_parser.add_argument("--profile", action="store_true",
                                 help="attach the sampling profiler and print "
                                      "its span/frame/memory tables; with "
                                      "--trace, also recorded in the trace "
                                      "for 'repro trace-report --profile'")
    discover_parser.add_argument("--profile-interval", type=float, default=0.005,
                                 metavar="SECONDS",
                                 help="sampling period for --profile "
                                      "(default 0.005)")
    discover_parser.add_argument("--metrics-file", metavar="FILE", default=None,
                                 help="write the run's metrics as Prometheus "
                                      "text exposition to FILE when done")
    discover_parser.add_argument("--metrics-port", type=int, default=None,
                                 metavar="PORT",
                                 help="serve live Prometheus metrics on "
                                      "localhost:PORT during the run "
                                      "(0 = pick a free port)")
    discover_parser.add_argument("--metrics-snapshots", metavar="JSONL",
                                 default=None,
                                 help="append periodic registry snapshots to "
                                      "this JSONL file (1s interval; convert "
                                      "with 'repro export-metrics')")

    keys_parser = subparsers.add_parser(
        "keys", help="find minimal (approximate) unique column combinations"
    )
    keys_parser.add_argument("csv", help="input CSV file")
    keys_parser.add_argument("--epsilon", type=float, default=0.0,
                             help="rows removable for uniqueness, as a fraction")
    keys_parser.add_argument("--max-size", type=int, default=None,
                             help="maximum attributes per combination")
    keys_parser.add_argument("--no-header", action="store_true")

    profile_parser = subparsers.add_parser("profile", help="profile a CSV file")
    profile_parser.add_argument("csv", help="input CSV file")
    profile_parser.add_argument("--epsilon", type=float, default=0.0,
                                help="also run approximate discovery at this threshold")
    profile_parser.add_argument("--max-lhs", type=int, default=None)
    profile_parser.add_argument("--no-header", action="store_true")

    bench_parser = subparsers.add_parser("bench", help="regenerate a paper table/figure")
    bench_parser.add_argument(
        "target",
        choices=["table1", "table2", "table3", "figure3", "figure4",
                 "ablation-pruning", "ablation-engine", "ablation-g3",
                 "ablation-strategy"],
    )
    bench_parser.add_argument("--scale", choices=list(SCALES), default=None,
                              help="workload scale (default: REPRO_BENCH_SCALE or quick)")

    dataset_parser = subparsers.add_parser("dataset", help="materialize a benchmark dataset")
    dataset_parser.add_argument("name", choices=sorted(DATASET_BUILDERS) + ["chess"])
    dataset_parser.add_argument("output", help="output CSV path")
    dataset_parser.add_argument("--seed", type=int, default=0)
    dataset_parser.add_argument("--copies", type=int, default=1,
                                help="replicate xN with unique per-copy values")

    trace_parser = subparsers.add_parser(
        "trace-report",
        help="render a --trace JSONL file: per-level phase timings "
             "and store I/O, or a node-batch summary",
    )
    trace_parser.add_argument("trace", help="JSONL trace written by 'discover --trace'")
    trace_parser.add_argument("--profile", action="store_true",
                              help="also render the profile recorded "
                                   "by 'discover --profile --trace'")

    export_parser = subparsers.add_parser(
        "export-metrics",
        help="convert a --metrics-snapshots JSONL file to Prometheus "
             "text exposition",
    )
    export_parser.add_argument("snapshots",
                               help="JSONL file written by 'discover "
                                    "--metrics-snapshots'")
    export_parser.add_argument("--output", metavar="FILE", default=None,
                               help="write exposition here instead of stdout")
    export_parser.add_argument("--index", type=int, default=-1,
                               help="which snapshot line to export "
                                    "(default -1 = the last)")
    export_parser.add_argument("--label", action="append", default=[],
                               metavar="KEY=VALUE",
                               help="attach a label to every sample "
                                    "(repeatable)")

    verify_parser = subparsers.add_parser(
        "verify",
        help="fuzz the config matrix: differential + metamorphic + oracle "
             "checks over seeded synthetic relations",
    )
    verify_parser.add_argument("--seeds", type=int, default=25,
                               help="number of consecutive fuzz seeds (default 25)")
    verify_parser.add_argument("--seed-base", type=int, default=0,
                               help="first seed (shard campaigns by offsetting this)")
    verify_parser.add_argument("--matrix", choices=["smoke", "full"], default="smoke",
                               help="config-cell set: smoke or full (adds "
                                    "checkpoint cells for the disk store and "
                                    "the pure engine)")
    verify_parser.add_argument("--failure-dir", metavar="DIR", default=".verify-failures",
                               help="directory for minimized failure cases "
                                    "(default .verify-failures)")
    verify_parser.add_argument("--no-metamorphic", action="store_true",
                               help="skip the metamorphic layer (differential + "
                                    "oracles only)")
    verify_parser.add_argument("--no-measure-checks", action="store_true",
                               help="skip the cross-measure layer (exact-FD "
                                    "agreement, deletion response, shuffle/"
                                    "permutation invariance, planted entailment "
                                    "for every measure)")
    verify_parser.add_argument("--replay", metavar="CASE", default=None,
                               help="re-run a serialized failure case directory "
                                    "instead of fuzzing")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the discovery service (HTTP API with dataset registry, "
             "result cache, and job streaming)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="interface to bind (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8321,
                              help="TCP port (default 8321; 0 = pick a free port)")
    serve_parser.add_argument("--workers", type=int, default=4,
                              help="concurrent discovery jobs (default 4)")
    serve_parser.add_argument("--result-cache-entries", type=int, default=128,
                              help="result-cache capacity in entries (default 128)")
    serve_parser.add_argument("--partition-cache-mb", type=int, default=64,
                              help="partition-cache budget in MiB (default 64)")
    serve_parser.add_argument("--dataset", action="append", default=[],
                              metavar="NAME=CSV",
                              help="preload a dataset from a CSV file "
                                   "(repeatable)")
    return parser


def _build_tracer(args: argparse.Namespace):
    """Construct the tracer requested by ``--trace`` / ``--log-level`` /
    ``--progress``: one stream, one sink per flag.

    Returns ``None`` when no flag is present, so the untraced path
    never imports or allocates observability machinery.
    """
    if args.trace is None and args.log_level is None and not args.progress:
        return None
    from repro.obs import JsonlSink, LoggingSink, ProgressLine, Tracer

    sinks = []
    if args.trace is not None:
        sinks.append(JsonlSink(args.trace))
    if args.log_level is not None:
        level = getattr(logging, args.log_level)
        logging.basicConfig(level=level)
        sinks.append(LoggingSink(level=level))
    if args.progress:
        sinks.append(ProgressLine(sys.stderr))
    return Tracer(sinks=sinks)


def _cmd_discover(args: argparse.Namespace) -> int:
    relation = read_csv(args.csv, header=not args.no_header)
    tracer = _build_tracer(args)

    wants_metrics = (
        args.metrics_file is not None
        or args.metrics_port is not None
        or args.metrics_snapshots is not None
    )
    metrics = None
    if wants_metrics:
        from repro.obs import MetricsRegistry

        metrics = tracer.metrics if tracer is not None else MetricsRegistry()

    config = TaneConfig(
        epsilon=args.epsilon,
        max_lhs_size=args.max_lhs,
        store=args.store,
        engine=args.engine,
        measure=args.measure,
        strategy=args.strategy,
        top_k=args.top_k,
        topk_rank=args.topk_rank,
        dfd_seed=args.dfd_seed,
        partition_cache="shared" if args.partition_cache else "off",
        tracer=tracer,
        metrics=metrics,
        profile=args.profile,
        profile_interval=args.profile_interval,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )

    server = None
    snapshots = None
    try:
        if args.metrics_port is not None:
            from repro.obs import MetricsServer

            server = MetricsServer(metrics, port=args.metrics_port).start()
            print(f"serving metrics at {server.url}", file=sys.stderr)
        if args.metrics_snapshots is not None:
            from repro.obs import SnapshotWriter

            snapshots = SnapshotWriter(metrics, args.metrics_snapshots, interval=1.0)
            snapshots.start()
        result = discover(relation, config)
    finally:
        if snapshots is not None:
            snapshots.stop()
        if server is not None:
            server.stop()
        if tracer is not None:
            tracer.close()
    if args.metrics_file is not None:
        from repro.obs import write_prometheus

        write_prometheus(args.metrics_file, metrics)
        print(f"metrics written to {args.metrics_file}", file=sys.stderr)
    print(result.format())
    if result.profile is not None:
        print()
        print(result.profile.format())
    if args.stats:
        stats = result.statistics
        print(f"levels: {stats.level_sizes}")
        print(f"sets s={stats.total_sets} smax={stats.max_level_size} "
              f"tests v={stats.validity_tests} products={stats.partition_products} "
              f"keys k={stats.keys_found}")
        if stats.cache_hits or stats.cache_misses:
            print(f"partition cache: hits={stats.cache_hits} "
                  f"misses={stats.cache_misses}")
    if args.trace is not None:
        print(f"trace written to {args.trace} "
              f"(render with: repro trace-report {args.trace})", file=sys.stderr)
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs import report_from_file

    try:
        report = report_from_file(args.trace)
    except OSError as error:
        raise DataError(f"cannot read trace file: {error}") from error
    except ValueError as error:
        raise DataError(str(error)) from error
    if not report.span_count:
        raise DataError(f"trace file {args.trace} contains no spans")
    print(report.format())
    if args.profile:
        from repro.obs import ProfileReport

        try:
            profile_report = ProfileReport.load(args.trace)
        except ValueError as error:
            raise DataError(str(error)) from error
        print()
        print(profile_report.format())
    return 0


def _cmd_export_metrics(args: argparse.Namespace) -> int:
    from repro.obs import load_snapshots, prometheus_exposition

    labels: dict[str, str] = {}
    for item in args.label:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise DataError(f"--label expects KEY=VALUE, got {item!r}")
        labels[key] = value
    try:
        snapshots = load_snapshots(args.snapshots)
    except OSError as error:
        raise DataError(f"cannot read snapshot file: {error}") from error
    except ValueError as error:
        raise DataError(str(error)) from error
    if not snapshots:
        raise DataError(f"snapshot file {args.snapshots} contains no snapshots")
    try:
        entry = snapshots[args.index]
    except IndexError:
        raise DataError(
            f"snapshot index {args.index} out of range "
            f"({len(snapshots)} snapshots in {args.snapshots})"
        ) from None
    text = prometheus_exposition(entry["snapshot"], labels or None)
    if args.output is not None:
        from repro.obs import write_prometheus

        write_prometheus(args.output, entry["snapshot"], labels or None)
        print(f"metrics written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_keys(args: argparse.Namespace) -> int:
    from repro.core.uccs import discover_uccs

    relation = read_csv(args.csv, header=not args.no_header)
    result = discover_uccs(relation, epsilon=args.epsilon, max_size=args.max_size)
    print(result.format())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    relation = read_csv(args.csv, header=not args.no_header)
    report = profile(relation, epsilon=args.epsilon, max_lhs_size=args.max_lhs)
    print(report.format())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import workloads

    if args.target == "figure3":
        for label, series_map in workloads.run_figure3(args.scale).items():
            print(f"[{label}]")
            for series in series_map.values():
                print("  " + series.format())
        return 0
    runner = {
        "table1": workloads.run_table1,
        "table2": workloads.run_table2,
        "table3": workloads.run_table3,
        "figure4": workloads.run_figure4,
        "ablation-pruning": workloads.run_ablation_pruning,
        "ablation-engine": workloads.run_ablation_engine,
        "ablation-g3": workloads.run_ablation_g3_bounds,
        "ablation-strategy": workloads.run_ablation_strategy,
    }[args.target]
    print(runner(args.scale).format())
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    relation = uci_dataset(args.name, seed=args.seed) if args.name != "chess" else uci_dataset("chess")
    if args.copies > 1:
        relation = replicate_with_unique_suffix(relation, args.copies)
    write_csv(relation, args.output)
    print(f"wrote {relation.num_rows} rows x {relation.num_attributes} attributes to {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import tempfile

    from repro.verify import format_fuzz_report, format_mismatch, fuzz, replay_case

    with tempfile.TemporaryDirectory(prefix="repro-verify-") as workdir:
        if args.replay is not None:
            mismatches = replay_case(args.replay, workdir=workdir)
            for mismatch in mismatches:
                print(format_mismatch(mismatch))
            if mismatches:
                print(f"case still reproduces ({len(mismatches)} mismatches)")
                return 1
            print("case no longer reproduces")
            return 0

        def progress(seed, failure):
            if failure is not None:
                print(f"seed {seed}: MISMATCH [{failure.target.cell}] "
                      f"{failure.target.dimension}", file=sys.stderr)

        report = fuzz(
            args.seeds,
            matrix=args.matrix,
            seed_base=args.seed_base,
            workdir=workdir,
            failure_dir=args.failure_dir,
            metamorphic=not args.no_metamorphic,
            measure_checks=not args.no_measure_checks,
            progress=progress,
        )
    print(format_fuzz_report(report))
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.serve import DiscoveryService, ServiceServer

    service = DiscoveryService(
        workers=args.workers,
        result_cache_entries=args.result_cache_entries,
        partition_cache_bytes=args.partition_cache_mb * 1024 * 1024,
    )
    for item in args.dataset:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise DataError(f"--dataset expects NAME=CSV, got {item!r}")
        service.register_dataset(name, relation=read_csv(path))
        print(f"registered dataset {name!r} from {path}", file=sys.stderr)
    server = ServiceServer(service, host=args.host, port=args.port).start()
    # The smoke gate and scripts parse this line for the bound URL.
    print(f"serving discovery API at {server.url}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.stop()
        service.close(wait=False)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "discover": _cmd_discover,
        "keys": _cmd_keys,
        "profile": _cmd_profile,
        "bench": _cmd_bench,
        "dataset": _cmd_dataset,
        "trace-report": _cmd_trace_report,
        "export-metrics": _cmd_export_metrics,
        "verify": _cmd_verify,
        "serve": _cmd_serve,
    }[args.command]
    try:
        return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
