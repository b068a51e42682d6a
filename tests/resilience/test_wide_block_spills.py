"""Level blocks of a schema wider than 63 attributes on a disk store.

Past 63 attributes a level block holds ``object`` masks, which a spill
writes as little-endian 64-bit words.  With a one-byte budget every
block spills as soon as it is stored, so each level goes through the
spill, the reload and, after a crash, the adoption of its
``level-<n>.bin``; the results must be the memory store's.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.tane import TaneConfig, discover
from repro.partition.store import DiskPartitionStore

from ..conftest import copies_relation
from .conftest import assert_identical_results
from .test_checkpoint_resume import run_interrupted

EPSILONS = [0.0, 0.05]
DISK = dict(store="disk", store_options=(("resident_budget_bytes", 1),))


@pytest.fixture
def adoptions(monkeypatch):
    """Whether each level-block spill offered to a resume was adopted."""
    outcomes = []
    adopt = DiskPartitionStore.adopt_spilled_block

    def recording(self, *args, **kwargs):
        outcomes.append(adopt(self, *args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(DiskPartitionStore, "adopt_spilled_block", recording)
    return outcomes


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_object_mask_blocks_spill_and_reload(epsilon):
    relation = copies_relation()
    baseline = discover(relation, TaneConfig(epsilon=epsilon))
    spilled = discover(relation, TaneConfig(epsilon=epsilon, **DISK))
    assert spilled.statistics.store_spills > 0
    assert spilled.statistics.store_loads > 0
    assert_identical_results(spilled, baseline)


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_resume_adopts_object_mask_blocks(tmp_path, adoptions, epsilon):
    relation = copies_relation()
    baseline = discover(relation, TaneConfig(epsilon=epsilon))
    run_interrupted(relation, tmp_path, level=3, epsilon=epsilon, **DISK)
    assert list((tmp_path / "spill").glob("level-*.bin"))
    resumed = discover(
        relation, TaneConfig(epsilon=epsilon, checkpoint_dir=tmp_path, resume=True, **DISK)
    )
    assert adoptions and all(adoptions)
    assert_identical_results(resumed, baseline)


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_resume_recomputes_over_an_old_tag_block(tmp_path, adoptions, epsilon):
    # The earlier block layout wrote int64 masks with no word count;
    # written from object masks its "masks" were pointers.  Planted over
    # every level spill, such files must be recomputed, not adopted.
    relation = copies_relation()
    baseline = discover(relation, TaneConfig(epsilon=epsilon))
    run_interrupted(relation, tmp_path, level=3, epsilon=epsilon, **DISK)
    planted = list((tmp_path / "spill").glob("level-*.bin"))
    assert planted
    for path in planted:
        count = struct.unpack("<8sq", path.read_bytes()[:16])[1]
        masks = np.array([1 << 64] * count, dtype=object)
        header = struct.pack("<8sqqq", b"TANEblk\x01", count, relation.num_rows, 0)
        path.write_bytes(header + masks.tobytes() + np.zeros(count, np.int64).tobytes())
    resumed = discover(
        relation, TaneConfig(epsilon=epsilon, checkpoint_dir=tmp_path, resume=True, **DISK)
    )
    assert adoptions and not any(adoptions)
    assert_identical_results(resumed, baseline)
