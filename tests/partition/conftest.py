"""Fixtures and the references shared by the partition-engine tests:
the pair-key product of two CSR partitions, and the label rows a level
block must hold for a CSR partition."""

import numpy as np
import pytest

import repro.partition.vectorized as vectorized
from repro import _bitset
from repro.partition.vectorized import LABEL_DTYPE, LevelBlock


def reference_product(x, y):
    """``x · y`` grouped by a stable argsort of int64 pair keys, as
    ``(indices, offsets, e(π))``: a reference that shares no code with
    the engine's kernels."""
    lx = np.full(x.num_rows, -1, dtype=np.int64)
    lx[x.indices] = np.repeat(np.arange(x.num_classes), x.class_sizes)
    left = lx[y.indices]
    right = np.repeat(np.arange(y.num_classes), y.class_sizes)
    survive = left >= 0
    keys = left[survive] * max(y.num_classes, 1) + right[survive]
    rows = y.indices[survive]
    order = np.argsort(keys, kind="stable")
    _, starts, sizes = np.unique(keys[order], return_index=True, return_counts=True)
    kept = sizes >= 2
    indices = rows[order][np.repeat(kept, sizes)]
    offsets = np.concatenate(([0], np.cumsum(sizes[kept])))
    return indices, offsets, int(keys.size - starts.size)


def assert_matches_reference(observed, x, y):
    """``observed`` has the int32 bytes and rank of :func:`reference_product`."""
    indices, offsets, error = reference_product(x, y)
    assert observed.indices.dtype == np.int32
    assert observed.offsets.dtype == np.int32
    assert observed.indices.tolist() == indices.tolist()
    assert observed.offsets.tolist() == offsets.tolist()
    assert observed.error_count == error


def label_row(partition):
    """``partition`` as a reference label row: each row's label is its
    class's index in ``classes()`` order, -1 where the partition strips
    the row."""
    labels = np.full(partition.num_rows, -1, dtype=LABEL_DTYPE)
    for label, rows in enumerate(partition.classes()):
        labels[np.array(rows, dtype=np.intp)] = label
    return labels


def label_block(masks, partitions, num_rows):
    """The block of ascending ``masks`` holding the reference label rows
    of ``partitions``, through the ``LevelBlock`` constructor."""
    masks = list(masks)
    dtype = _bitset.mask_dtype(max(masks, default=0).bit_length())
    return LevelBlock(
        np.array(masks, dtype=dtype),
        np.array([label_row(p) for p in partitions], dtype=LABEL_DTYPE).reshape(-1, num_rows),
        np.array([p.num_classes for p in partitions], dtype=np.int64),
        np.array([p.error_count for p in partitions], dtype=np.int64),
        num_rows,
    )


def assert_rows_match(block, partitions):
    """Every row of ``block`` holds the reference label row, class count
    and rank of the partition in the same place; a rank-only block
    holds the ranks alone."""
    assert len(block) == len(partitions)
    assert block.errors.tolist() == [p.error_count for p in partitions]
    if block.labels is None:
        assert block.classes is None
        return
    assert block.labels.dtype == LABEL_DTYPE
    assert block.classes.tolist() == [p.num_classes for p in partitions]
    for labels, partition in zip(block.labels, partitions):
        assert np.array_equal(labels, label_row(partition))


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
