"""Tests of the benchmark itself, at smoke scale.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.tane import TaneConfig, discover
from repro.datasets.csvio import read_csv, write_csv
from repro.fingerprint import dataset_fingerprint

from perfbench import harness, run
from perfbench.layers import LAYER_TARGETS, LAYERS, LayerTimer, resolve
from perfbench.workloads import WORKLOADS, cover_digest, load_references, oracle_problems

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = BENCHMARK["run_seconds"]

#: Fields a workload may set; everything else stays at its default.
NAMED_FIELDS = {"max_lhs_size", "strategy", "measure", "epsilon"}

#: Layers each workload must exercise (the rest may read zero).
EXERCISED = {
    "wide_exact": set(LAYERS) - {"dfd"},
    "tall_exact": set(LAYERS) - {"dfd"},
    "afd_walk": {"vectorized", "measures", "execution", "store", "partitions", "dfd"},
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


# ----------------------------------------------------------------------
# Cache-proofing
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("smoke", [True, False])
def test_configs_leave_everything_but_the_named_fields_default(name, smoke):
    config = WORKLOADS[name].configuration(smoke)
    default = TaneConfig()
    assert config.partition_cache == default.partition_cache
    changed = {
        field.name
        for field in dataclasses.fields(TaneConfig)
        if getattr(config, field.name) != getattr(default, field.name)
    }
    assert changed <= NAMED_FIELDS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pool_relations_have_pairwise_distinct_fingerprints(name):
    """A run draws distinct pool seeds, so distinct pool relations make
    every run's relations (warm-up included) distinct."""
    workload = WORKLOADS[name]
    for smoke in (True, False):
        fingerprints = [
            dataset_fingerprint(workload.build(seed, smoke)) for seed in workload.pool(smoke)
        ]
        assert len(set(fingerprints)) == len(fingerprints)
        for run_seed in range(20):
            seeds = workload.call_seeds(run_seed, RUN_SECONDS, smoke)
            assert len(set(seeds)) == len(seeds)
            assert set(seeds) <= set(workload.pool(smoke))
            assert seeds == workload.call_seeds(run_seed, RUN_SECONDS, smoke)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_run_times_the_same_relations(name):
    """The run seed picks the order and the warm-up, not the timed work,
    and the host's speed picks nothing."""
    workload = WORKLOADS[name]
    timed = workload.timed_calls(RUN_SECONDS, smoke=False)
    assert 2 <= timed <= workload.timed_pool_size
    warm_ups = set()
    for run_seed in range(20):
        warm_up, *seeds = workload.call_seeds(run_seed, RUN_SECONDS, smoke=False)
        assert sorted(seeds) == list(range(timed))
        assert warm_up >= workload.timed_pool_size
        warm_ups.add(warm_up)
    assert len(warm_ups) > 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_relations_read_from_csv_are_distinct(name, tmp_path):
    workload = WORKLOADS[name]
    seeds = workload.call_seeds(0, RUN_SECONDS, True)
    fingerprints = []
    for seed in seeds:
        write_csv(workload.build(seed, True), tmp_path / f"{seed}.csv")
        fingerprints.append(dataset_fingerprint(read_csv(tmp_path / f"{seed}.csv")))
    assert len(set(fingerprints)) == len(seeds)


# ----------------------------------------------------------------------
# Result checking
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_references_hold_minimally_on_the_run_relation(name):
    workload = WORKLOADS[name]
    config = workload.configuration(True)
    references = load_references()["smoke"][name]
    assert set(references) == {str(seed) for seed in workload.pool(True)}
    for seed in workload.pool(True):
        relation = workload.build(seed, True)
        dependencies = discover(relation, config).dependencies
        assert cover_digest(dependencies) == references[str(seed)]["digest"]
        assert oracle_problems(config, relation, dependencies) == []


@pytest.mark.parametrize("name", ["tall_exact", "afd_walk"])
def test_replication_keeps_the_oracle_relations_cover(name):
    """The oracle scans the unreplicated relation; that is sound only if
    replication keeps the cover and its errors."""
    workload = WORKLOADS[name]
    config = workload.configuration(True)
    from repro.datasets.replicate import replicate_with_unique_suffix

    base = workload.oracle_relation(1, True)
    replicated = replicate_with_unique_suffix(base, 3)
    assert cover_digest(discover(base, config).dependencies) == cover_digest(
        discover(replicated, config).dependencies
    )


def test_full_references_cover_every_pool_seed():
    references = load_references()["full"]
    for name, workload in WORKLOADS.items():
        assert set(references[name]) == {str(seed) for seed in workload.pool(False)}


def test_a_call_that_raises_is_counted_as_failed(tmp_path):
    workload = WORKLOADS["wide_exact"]
    reference = load_references()["smoke"]["wide_exact"]["0"]
    missing = harness._call(workload, 0, tmp_path / "missing.csv", True, reference, False)
    assert not missing.ok
    path = tmp_path / "0.csv"
    write_csv(workload.build(0, True), path)
    present = harness._call(workload, 0, path, True, reference, False)
    assert present.ok
    assert len(present.reads_s) == workload.reads_per_call


def test_a_wrong_result_makes_the_run_exit_nonzero(monkeypatch, capsys):
    def wrong(workload, **_):
        return {"correct": False, "attempted": 3, "failed": 1, "metrics": {}}, []

    monkeypatch.setattr(harness, "run_workload", wrong)
    assert run.main(["--workload", "wide_exact", "--smoke"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_oracle_rejects_a_broken_cover():
    workload = WORKLOADS["wide_exact"]
    config = workload.configuration(True)
    relation = workload.build(0, True)
    dependencies = list(discover(relation, config).dependencies)
    fd = next(fd for fd in dependencies if fd.lhs)
    # Dropping an lhs attribute of a minimal dependency breaks it.
    broken = dataclasses.replace(fd, lhs=fd.lhs & (fd.lhs - 1))
    assert oracle_problems(config, relation, [broken])


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------


def _originals():
    return [vars(owner)[attribute] for owner, attribute in (
        resolve(module, path) for _, module, path in LAYER_TARGETS
    )]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_wrappers_record_every_exercised_layer_and_leave_no_trace(name):
    workload = WORKLOADS[name]
    config = workload.configuration(True)
    relation = workload.build(2, True)
    before = _originals()
    untraced = discover(relation, config)
    timer = LayerTimer()
    with timer.installed():
        assert _originals() != before
        traced = discover(relation, config)
    assert _originals() == before
    assert cover_digest(traced.dependencies) == cover_digest(untraced.dependencies)
    for layer in LAYERS:
        if layer in EXERCISED[name]:
            assert timer.calls[layer] > 0, layer
            assert timer.self_s[layer] > 0.0, layer
    if name != "afd_walk":
        assert timer.calls["dfd"] == 0
    assert sum(timer.self_s.values()) <= traced.statistics.elapsed_seconds


def test_self_time_excludes_nested_calls():
    timer = LayerTimer()
    inner = timer._wrap("store", lambda: sum(range(20000)))
    outer = timer._wrap("partitions", lambda: [inner() for _ in range(5)])
    outer()
    assert timer.calls == {**dict.fromkeys(LAYERS, 0), "store": 5, "partitions": 1}
    assert 0.0 < timer.self_s["partitions"] < timer.self_s["store"]


def test_a_renamed_target_fails_loudly_and_patches_nothing(monkeypatch):
    before = _originals()
    monkeypatch.setattr(
        "perfbench.layers.LAYER_TARGETS",
        LAYER_TARGETS + (("store", "repro.partition.store", "MemoryPartitionStore.fetch"),),
    )
    with pytest.raises(AttributeError, match="no longer exists"):
        with LayerTimer().installed():
            pass
    assert _originals() == before


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_the_declared_metrics(name, trace):
    child = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (3, 0)
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        metric: entry["unit"] for metric, entry in result["metrics"].items()
    }
    if trace == "1":
        metrics = {metric: entry["value"] for metric, entry in result["metrics"].items()}
        layered = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        total = layered + metrics["scheduler.self_s"]
        assert total == pytest.approx(metrics["trace.discover_s"])
        assert (metrics["dfd.calls"] > 0) == (name == "afd_walk")


def test_benchmark_declares_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_a_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    child = _run("--workload", "wide_exact", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert child.returncode != 0
    assert "{" not in child.stdout
