"""Exception safety of the shared probe workspace.

One :class:`PartitionWorkspace` is shared by an entire TANE run.
``product`` and
``g3_error_count`` scatter class labels into the probe array and must
reset them *even when the operation raises* — e.g. a corrupt attached
partition carrying out-of-range row ids — otherwise every later
product silently computes garbage.  These are regression tests for the
historical success-path-only reset.  The threaded pooled kernel adds
one workspace per pool thread, which must be clean after a raise too,
and a pool that a forked child must not inherit.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.partition.vectorized as vectorized
from repro.partition.vectorized import CsrPartition, PartitionWorkspace

NUM_ROWS = 60


@pytest.fixture
def vectorized_path(monkeypatch):
    """Force every product/g3 through the vectorized (probe) path —
    the dict-probe small path never touches the workspace."""
    monkeypatch.setattr(vectorized, "_SMALL_PRODUCT_THRESHOLD", -1)


def healthy_pair():
    rng = np.random.default_rng(5)
    left = CsrPartition.from_column(rng.integers(0, 4, size=NUM_ROWS))
    right = CsrPartition.from_column(rng.integers(0, 3, size=NUM_ROWS))
    return left, right


def corrupt_partition():
    """A partition whose row ids exceed the relation (attach skips
    validation by design — callers vouch for the buffers)."""
    indices = np.array([NUM_ROWS + 5, NUM_ROWS + 6], dtype=np.int64)
    offsets = np.array([0, 2], dtype=np.int64)
    return CsrPartition.attach(indices, offsets, NUM_ROWS)


class TestProductProbeReset:
    def test_failed_product_leaves_probe_clean(self, vectorized_path):
        left, _ = healthy_pair()
        workspace = PartitionWorkspace(NUM_ROWS)
        with pytest.raises(IndexError):
            left.product(corrupt_partition(), workspace)
        assert (workspace.probe == -1).all(), "probe left dirty after a raise"

    def test_next_product_correct_after_failure(self, vectorized_path):
        left, right = healthy_pair()
        expected = left.product(right)  # private workspace
        workspace = PartitionWorkspace(NUM_ROWS)
        with pytest.raises(IndexError):
            left.product(corrupt_partition(), workspace)
        observed = left.product(right, workspace)
        assert np.array_equal(observed.indices, expected.indices)
        assert np.array_equal(observed.offsets, expected.offsets)

    def test_batched_products_reset_on_failure(self, vectorized_path):
        left, right = healthy_pair()
        expected = left.product(right)
        workspace = PartitionWorkspace(NUM_ROWS)
        with pytest.raises(IndexError):
            vectorized.batched_products(
                [(left, right), (left, corrupt_partition())], workspace
            )
        assert (workspace.probe == -1).all()
        [redo] = vectorized.batched_products([(left, right)], workspace)
        assert np.array_equal(redo.indices, expected.indices)


class TestG3ProbeReset:
    def test_failed_g3_leaves_probe_clean_and_later_calls_correct(
        self, vectorized_path
    ):
        left, right = healthy_pair()
        refined = left.product(right)
        expected = left.g3_error_count(refined)
        workspace = PartitionWorkspace(NUM_ROWS)
        with pytest.raises(IndexError):
            left.g3_error_count(corrupt_partition(), workspace)
        assert (workspace.probe == -1).all()
        assert left.g3_error_count(refined, workspace) == expected


class TestThreadedProbeReset:
    @pytest.mark.parametrize(
        "kernel", [vectorized.batched_products, vectorized.batched_error_counts]
    )
    def test_failed_threaded_call_leaves_every_probe_clean(
        self, pooled_kernel, kernel_threads, kernel
    ):
        left, right = healthy_pair()
        workspace = PartitionWorkspace(NUM_ROWS)
        pairs = [(left, right), (right, left), (left, corrupt_partition()), (right, right)]
        with pytest.raises(IndexError):
            kernel(pairs, workspace)
        assert kernel_threads, "the call did not run on the pool"
        assert (workspace.probe == -1).all()
        for thread_workspace in kernel_threads:
            assert (thread_workspace.probe == -1).all()
        redo = vectorized.batched_products([(left, right), (right, left)], workspace)
        for observed, expected in zip(redo, [left._product_small(right), right._product_small(left)]):
            assert np.array_equal(observed.indices, expected.indices)
            assert np.array_equal(observed.offsets, expected.offsets)


# A threaded call in the parent, then a forked child's threaded call and
# a whole discovery in a second forked child: a child that kept the
# parent's pool would hand its work to threads the fork did not copy and
# wait forever.
FORK_AFTER_THREADS = """
import os

import numpy as np

import repro.partition.vectorized as vectorized
from repro.core.tane import TaneConfig, discover
from repro.model.relation import Relation

vectorized._THREAD_MIN_ROWS = 0
vectorized._DENSE_MAX_ROWS = 0
vectorized._pool_threads = 2
rng = np.random.default_rng(3)
columns = [rng.integers(0, domain, size=400) for domain in (2, 3, 5, 7, 40)]
singles = [vectorized.CsrPartition.from_column(column) for column in columns]
pairs = [(x, y) for x in singles for y in singles if x is not y]
expected = vectorized.batched_error_counts(pairs)
assert vectorized._pool is not None, "the parent's call did not start the pool"

child = os.fork()
if child == 0:
    os._exit(0 if vectorized.batched_error_counts(pairs) == expected else 1)
assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0

relation = Relation.from_codes(columns)
parent = discover(relation, TaneConfig())
child = os.fork()
if child == 0:
    forked = discover(relation, TaneConfig())
    os._exit(0 if forked.dependencies == parent.dependencies else 1)
assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0
print("completed")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")
def test_fork_after_threaded_call_completes():
    source = str(Path(repro.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    # A session of its own, so a hang is ended with every process the
    # script forked, not just the script.
    process = subprocess.Popen(
        [sys.executable, "-c", FORK_AFTER_THREADS],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        pytest.fail("a forked run after a threaded call hung")
    assert process.returncode == 0, stderr
    assert stdout.strip() == "completed"
