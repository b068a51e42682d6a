"""Fixtures shared by the partition-engine tests."""

import pytest

import repro.partition.vectorized as vectorized


@pytest.fixture
def pooled_kernel(monkeypatch):
    """Route every ``batched_products`` task through the pooled
    (probe-scatter) kernel, whatever the relation's row count."""
    monkeypatch.setattr(vectorized, "_DENSE_MAX_ROWS", 0)


@pytest.fixture
def kernel_threads(monkeypatch):
    """Run every pooled-kernel call with two or more left factors on a
    fresh pool of two threads, whatever the host's CPUs and the call's
    size.  Yields the probe workspaces the pool threads took, one entry
    per left-factor group they scattered."""
    used = []
    thread_workspace = vectorized._thread_workspace

    def recording(num_rows):
        workspace = thread_workspace(num_rows)
        used.append(workspace)
        return workspace

    monkeypatch.setattr(vectorized, "_thread_workspace", recording)
    monkeypatch.setattr(vectorized, "_THREAD_MIN_ROWS", 0)
    monkeypatch.setattr(vectorized, "_pool_threads", 2)
    monkeypatch.setattr(vectorized, "_pool", None)
    yield used
    if vectorized._pool is not None:
        vectorized._pool.shutdown()
