"""Command-line entry point of the discovery benchmark.

Run one workload (the last stdout line is the result as JSON)::

    python3 perfbench/run.py --workload wide_exact --seed 0 --seconds 20 --trace 0

``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones; ``--smoke`` runs the workload at a tiny size in seconds, with the
same metric names.  ``--workload all`` runs every workload, each in
its own process, and prints one table.  Run it from a full checkout:
the program is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, same metric names")
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload in its own process, then one summary table."""
    results = {}
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} exited with {child.returncode} without a result",
                  file=sys.stderr)
            return 1
    metrics = {}  # name -> unit, in the order the workloads report them
    for result in results.values():
        metrics.update({metric: entry["unit"] for metric, entry in result["metrics"].items()})
    print()
    print(f"{'metric':<28}" + "".join(f"{name:>16}" for name in names))
    for metric, unit in metrics.items():
        row = "".join(
            f"{results[n]['metrics'][metric]['value']:>16.6g}" if metric in results[n]["metrics"]
            else f"{'-':>16}"
            for n in names
        )
        print(f"{metric + ' (' + unit + ')':<28}{row}")
    failed_frac = "".join(f"{results[n]['failed'] / results[n]['attempted']:>16.3f}" for n in names)
    print(f"{'failed_frac':<28}{failed_frac}")
    print(json.dumps(results))
    return 0 if all(result["correct"] for result in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: {ROOT / 'src' / 'repro'} is missing; run the benchmark "
            "from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # The program comes from this checkout's src/, never from an install.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run_workload
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS)
    if args.workload == "all":
        return _run_all(args, names)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        result, summary = run_workload(
            WORKLOADS[args.workload],
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            smoke=args.smoke,
            workdir=Path(workdir),
        )
    print("\n".join(summary))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
