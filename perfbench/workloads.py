"""The benchmark's workloads: relations, configurations and seeds.

Every workload draws the relations of one run from a fixed pool of
generator seeds, whose reference covers are recorded in
``references.json`` (see ``record_references.py``), so every call of
every run is checked against a known answer.  The pool has two parts:
the first seeds are the *timed* relations, the rest are warm-up
relations.  Every run with the same ``--seconds`` times the same
relations, in an order fixed by the run seed, after one warm-up call
on a relation the run seed picks from the warm-up part.  So two runs
(or two commits) do the same timed work, no seed repeats within a run,
and no cache that outlives a call can turn repetition into a speed-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro import _bitset
from repro.baselines.bruteforce import dependency_error
from repro.core.tane import TaneConfig
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.uci import make_hepatitis_like, make_wisconsin_like
from repro.model.relation import Relation

__all__ = [
    "Workload",
    "WORKLOADS",
    "REFERENCES_PATH",
    "cover_digest",
    "load_references",
    "oracle_problems",
]

REFERENCES_PATH = Path(__file__).with_name("references.json")

# Slack for float error sums when comparing the oracle's error to epsilon.
_TOLERANCE = 1e-9

# At smoke scale every workload has four pool seeds: two timed, two warm-up.
SMOKE_POOL_SIZE = 4
SMOKE_TIMED_CALLS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at both scales.

    ``build(seed, smoke)`` makes the relation a call discovers over;
    ``oracle_relation(seed, smoke)`` is a relation with the same
    dependency cover that the bruteforce oracle can afford to scan (the
    row-replicated workloads replicate with per-copy unique values,
    which keeps every dependency and every ``g3``/``pdep`` error of the
    base relation — Section 7 of the paper).
    """

    name: str
    build: Callable[[int, bool], Relation]
    oracle_relation: Callable[[int, bool], Relation]
    config: TaneConfig
    smoke_config: TaneConfig
    nominal_call_s: float
    """Wall seconds per timed call at full scale on a 2-core x86 host
    in a slow spell, its untimed set-up (writing the CSV, calibrating)
    included; sets how many calls a run times."""
    timed_pool_size: int
    """Pool seeds ``0 .. timed_pool_size - 1`` are timed relations."""
    pool_size: int
    """Seeds from ``timed_pool_size`` up are warm-up relations."""
    reads_per_call: int
    """``read_csv`` calls timed on each call's file for ``setup_s``."""

    def configuration(self, smoke: bool) -> TaneConfig:
        return self.smoke_config if smoke else self.config

    def pool(self, smoke: bool) -> range:
        return range(SMOKE_POOL_SIZE if smoke else self.pool_size)

    def timed_calls(self, seconds: float, smoke: bool) -> int:
        """Calls a run times: enough to fill ``seconds`` at the nominal
        per-call cost, at least two (a traced run splits them between
        traced and untraced calls), and at most the timed pool.  The
        count does not depend on how fast the host is, so runs of two
        commits with the same seed time the same relations."""
        if smoke:
            return SMOKE_TIMED_CALLS
        wanted = round(seconds / self.nominal_call_s)
        return max(2, min(self.timed_pool_size, wanted))

    def call_seeds(self, run_seed: int, seconds: float, smoke: bool) -> list[int]:
        """The seeds one run uses: a warm-up seed, then the timed seeds.

        The timed seeds are always the first :meth:`timed_calls` pool
        seeds; the run seed only picks their order and the warm-up."""
        rng = random.Random(f"{self.name}:{run_seed}")
        timed_pool = SMOKE_TIMED_CALLS if smoke else self.timed_pool_size
        warm_up = rng.choice(self.pool(smoke)[timed_pool:])
        timed = list(range(self.timed_calls(seconds, smoke)))
        rng.shuffle(timed)
        return [warm_up, *timed]


def _wide(seed: int, smoke: bool) -> Relation:
    return make_hepatitis_like(seed)


def _tall(seed: int, smoke: bool) -> Relation:
    return replicate_with_unique_suffix(make_wisconsin_like(seed), 2 if smoke else 144)


def _walk(seed: int, smoke: bool) -> Relation:
    return replicate_with_unique_suffix(make_wisconsin_like(seed), 1 if smoke else 4)


def _wisconsin(seed: int, smoke: bool) -> Relation:
    return make_wisconsin_like(seed)


_WALK = dict(strategy="dfd", measure="pdep", epsilon=0.05)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="wide_exact",
            build=_wide,
            oracle_relation=_wide,
            config=TaneConfig(max_lhs_size=4),
            smoke_config=TaneConfig(max_lhs_size=3),
            nominal_call_s=1.75,
            timed_pool_size=24,
            pool_size=32,
            reads_per_call=40,
        ),
        Workload(
            name="tall_exact",
            build=_tall,
            oracle_relation=_wisconsin,
            config=TaneConfig(),
            smoke_config=TaneConfig(),
            nominal_call_s=6.0,
            timed_pool_size=8,
            pool_size=16,
            reads_per_call=1,
        ),
        Workload(
            name="afd_walk",
            build=_walk,
            oracle_relation=_wisconsin,
            config=TaneConfig(**_WALK),
            smoke_config=TaneConfig(max_lhs_size=2, **_WALK),
            nominal_call_s=5.0,
            timed_pool_size=8,
            pool_size=16,
            reads_per_call=8,
        ),
    )
}


def cover_digest(dependencies) -> str:
    """Order-independent digest of a dependency cover.

    Covers are compared by ``(lhs, rhs)`` and by the error rounded to
    nine decimals, so a measure that drifts is caught as well as a
    missing or extra dependency.
    """
    lines = sorted(
        f"{fd.lhs}:{fd.rhs}:{round(float(fd.error), 9):.9f}" for fd in dependencies
    )
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def load_references() -> dict:
    """``{scale: {workload: {seed: {"digest", "dependencies"}}}}``."""
    with REFERENCES_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def oracle_problems(config: TaneConfig, relation: Relation, dependencies) -> list[str]:
    """Check a cover dependency by dependency with the bruteforce oracle.

    :func:`repro.baselines.bruteforce.dependency_error` groups rows by
    their values and shares no code with the search.  Every dependency
    must hold within epsilon, respect the lhs size limit, and be
    minimal: no lhs with one attribute fewer may hold.
    """
    limit = config.epsilon + _TOLERANCE
    problems = []
    for fd in dependencies:
        if config.max_lhs_size is not None and _bitset.popcount(fd.lhs) > config.max_lhs_size:
            problems.append(f"{fd}: lhs exceeds max_lhs_size={config.max_lhs_size}")
        error = dependency_error(relation, fd.lhs, fd.rhs, config.measure)
        if error > limit:
            problems.append(f"{fd}: {config.measure} error {error} exceeds {config.epsilon}")
        for attribute in _bitset.iter_bits(fd.lhs):
            smaller = fd.lhs & ~_bitset.bit(attribute)
            if dependency_error(relation, smaller, fd.rhs, config.measure) <= limit:
                problems.append(f"{fd}: not minimal, holds without attribute {attribute}")
                break
    return problems
