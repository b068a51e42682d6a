"""Record the reference cover of every pool seed in ``references.json``.

Usage::

    python3 perfbench/record_references.py [--smoke] [--workload NAME ...]

Each cover is computed through the same CSV path a benchmark call
takes, then checked dependency by dependency with the bruteforce oracle
(:func:`perfbench.workloads.oracle_problems`) before its digest is
written; the ``afd_walk`` cover must also equal the levelwise cover
under the same measure.  Re-record only when a change to the program is
*meant* to change covers, and say so in the change.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

from repro.core.tane import discover  # noqa: E402
from repro.datasets.csvio import read_csv, write_csv  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    REFERENCES_PATH,
    WORKLOADS,
    cover_digest,
    oracle_problems,
)


def record(name: str, seed: int, smoke: bool, workdir: Path) -> dict:
    workload = WORKLOADS[name]
    config = workload.configuration(smoke)
    path = workdir / f"{name}-{seed}.csv"
    write_csv(workload.build(seed, smoke), path)
    relation = read_csv(path)
    path.unlink()
    dependencies = discover(relation, config).dependencies
    problems = oracle_problems(config, workload.oracle_relation(seed, smoke), dependencies)
    if config.strategy != "levelwise":
        levelwise = discover(relation, dataclasses.replace(config, strategy="levelwise"))
        if cover_digest(levelwise.dependencies) != cover_digest(dependencies):
            problems.append(f"{config.strategy} cover differs from the levelwise cover")
    if problems:
        raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems[:5]))
    return {"digest": cover_digest(dependencies), "dependencies": len(dependencies)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args()
    scale = "smoke" if args.smoke else "full"
    references = (
        json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))
        if REFERENCES_PATH.exists()
        else {}
    )
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for name in args.workload or list(WORKLOADS):
            entries = {}
            for seed in WORKLOADS[name].pool(args.smoke):
                start = time.perf_counter()
                entries[str(seed)] = record(name, seed, args.smoke, Path(workdir))
                print(
                    f"{scale} {name} seed {seed}: {entries[str(seed)]['dependencies']} "
                    f"dependencies, checked in {time.perf_counter() - start:.1f} s",
                    flush=True,
                )
            references.setdefault(scale, {})[name] = entries
    REFERENCES_PATH.write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
