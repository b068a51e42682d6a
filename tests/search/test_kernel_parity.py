"""Batched and level-block products against one-product-at-a-time ones.

A run whose executor computes every product on its own, by the
partition's own ``product``, must return exactly the results and
counters of a run on the batched kernels.
"""

import numpy as np
import pytest

from repro.core.tane import TaneConfig, discover
from repro.model.relation import Relation
from repro.partition.vectorized import CsrPartition, LevelBlock
from repro.search.execution import SerialExecution
from tests.partition.conftest import label_block


@pytest.fixture
def relation() -> Relation:
    rng = np.random.default_rng(29)
    columns = [rng.integers(0, 5, size=300).astype(np.int64) for _ in range(5)]
    return Relation.from_codes(columns, [f"c{i}" for i in range(5)])


def assert_same_result(observed, expected):
    assert observed.dependencies == expected.dependencies
    assert observed.keys == expected.keys
    assert sorted(
        (fd.lhs, fd.rhs, fd.error) for fd in observed.dependencies
    ) == sorted((fd.lhs, fd.rhs, fd.error) for fd in expected.dependencies)


class PerTripleExecutor(SerialExecution):
    """The one-product-at-a-time loop the batched kernels must match:
    per-mask products, and a level block's products computed one
    candidate at a time by ``CsrPartition.product`` over the executor's
    own CSR partitions of every mask so far, laid out as the reference
    label rows (``tests/partition/conftest.py``)."""

    def __init__(self, relation):
        self.level_calls = 0
        self.partitions = {
            1 << i: CsrPartition.from_column(relation.column_codes(i))
            for i in range(relation.num_attributes)
        }

    def products(self, triples, fetch, workspace):
        for candidate, factor_x, factor_y in triples:
            yield candidate, fetch(factor_x).product(fetch(factor_y), workspace)

    def level_products(self, factors, candidates, x_rows, y_rows, *, ranks_only=False):
        self.level_calls += 1
        partitions = self.partitions
        masks = candidates.tolist()
        factor_x, factor_y = factors.masks[x_rows], factors.masks[y_rows]
        for mask, x, y in zip(masks, factor_x.tolist(), factor_y.tolist()):
            partitions[mask] = partitions[x].product(partitions[y])
        block = label_block(masks, [partitions[mask] for mask in masks], factors.num_rows)
        if ranks_only:
            block = LevelBlock(block.masks, None, None, block.errors, block.num_rows)
        return block


class TestKernelParity:
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_batched_and_triple_kernels_agree(self, relation, epsilon):
        executor = PerTripleExecutor(relation)
        batched = discover(relation, TaneConfig(epsilon=epsilon))
        triple = discover(relation, TaneConfig(epsilon=epsilon, executor=executor))
        assert executor.level_calls > 0
        assert_same_result(triple, batched)
        bs, ts = batched.statistics, triple.statistics
        assert bs.level_sizes == ts.level_sizes
        assert bs.partition_products == ts.partition_products
        assert bs.validity_tests == ts.validity_tests
