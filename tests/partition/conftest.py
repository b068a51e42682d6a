"""Fixtures shared by the partition-engine tests."""

import pytest

import repro.partition.vectorized as vectorized


@pytest.fixture
def pooled_kernel(monkeypatch):
    """Route every ``batched_products`` task through the pooled
    (probe-scatter) kernel, whatever the relation's row count."""
    monkeypatch.setattr(vectorized, "_DENSE_MAX_ROWS", 0)
