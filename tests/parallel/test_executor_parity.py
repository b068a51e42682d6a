"""End-to-end parity: the process executor must equal serial exactly.

The contract is not "same dependency set up to ordering" — it is
*identical* results object for object: dependencies with their per-FD
errors, keys, and every search counter.  One pool is shared across the
module's runs (session-scoped fixture) to keep fork costs down.
"""

import numpy as np
import pytest

from repro.core.tane import TaneConfig, discover
from repro.model.relation import Relation
from repro.parallel.executor import ProcessLevelExecutor

pytestmark = pytest.mark.multicore


@pytest.fixture(scope="module")
def pool_executor():
    executor = ProcessLevelExecutor(workers=4)
    yield executor
    executor.close()


@pytest.fixture(scope="module")
def random_relation() -> Relation:
    rng = np.random.default_rng(7)
    columns = [rng.integers(0, 6, size=400).astype(np.int64) for _ in range(6)]
    return Relation.from_codes(columns, [f"c{i}" for i in range(6)])


def assert_parity(relation, pool_executor, **config_kwargs):
    serial = discover(relation, TaneConfig(**config_kwargs))
    parallel = discover(
        relation, TaneConfig(executor=pool_executor, **config_kwargs)
    )
    assert parallel.dependencies == serial.dependencies
    assert parallel.keys == serial.keys
    assert sorted(
        (fd.lhs, fd.rhs, fd.error) for fd in parallel.dependencies
    ) == sorted((fd.lhs, fd.rhs, fd.error) for fd in serial.dependencies)
    ps, ss = parallel.statistics, serial.statistics
    assert ps.level_sizes == ss.level_sizes
    assert ps.validity_tests == ss.validity_tests
    assert ps.partition_products == ss.partition_products
    assert ps.error_computations == ss.error_computations
    assert ps.g3_exact_computations == ss.g3_exact_computations
    assert ps.g3_bound_rejections == ss.g3_bound_rejections
    return parallel


class TestFigure1Parity:
    def test_exact(self, figure1_relation, pool_executor):
        assert_parity(figure1_relation, pool_executor)

    def test_approximate(self, figure1_relation, pool_executor):
        assert_parity(figure1_relation, pool_executor, epsilon=0.3)


class TestRandomRelationParity:
    def test_exact(self, random_relation, pool_executor):
        assert_parity(random_relation, pool_executor)

    @pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.2])
    def test_g3(self, random_relation, pool_executor, epsilon):
        assert_parity(random_relation, pool_executor, epsilon=epsilon)

    @pytest.mark.parametrize("measure", ["g1", "g2"])
    def test_other_measures(self, random_relation, pool_executor, measure):
        assert_parity(
            random_relation, pool_executor, epsilon=0.05, measure=measure
        )

    def test_disk_store(self, random_relation, pool_executor):
        assert_parity(
            random_relation,
            pool_executor,
            epsilon=0.05,
            store="disk",
            store_options=(("resident_budget_bytes", 1), ("min_spill_bytes", 0)),
        )

    def test_max_lhs_limit(self, random_relation, pool_executor):
        assert_parity(random_relation, pool_executor, epsilon=0.1, max_lhs_size=2)


class TestDfdParity:
    def test_process_executor_serves_the_walk(self, monkeypatch):
        """The walk's product chains and tests run in the pool, and its
        reclaim sweeps free the pool's shared-memory residency."""
        # 8 attributes: ~480 validity tests, so several reclaim sweeps.
        rng = np.random.default_rng(7)
        columns = [rng.integers(0, 6, size=400).astype(np.int64) for _ in range(8)]
        relation = Relation.from_codes(columns, [f"c{i}" for i in range(8)])
        released = []
        release_masks = ProcessLevelExecutor.release_masks

        def spy(self, masks):
            masks = list(masks)
            released.append(sum(mask in self._residency for mask in masks))
            return release_masks(self, masks)

        monkeypatch.setattr(ProcessLevelExecutor, "release_masks", spy)
        config = dict(strategy="dfd", measure="pdep", epsilon=0.05)
        serial = discover(relation, TaneConfig(**config))
        parallel = discover(
            relation, TaneConfig(executor="process", workers=2, **config)
        )
        assert parallel.statistics.executor == "process"
        assert parallel.statistics.worker_chunks > 0
        assert sum(released) > 0
        assert sorted(
            (fd.lhs, fd.rhs, fd.error) for fd in parallel.dependencies
        ) == sorted((fd.lhs, fd.rhs, fd.error) for fd in serial.dependencies)
        ps, ss = parallel.statistics, serial.statistics
        assert ps.validity_tests == ss.validity_tests
        assert ps.partition_products == ss.partition_products
        assert ps.error_computations == ss.error_computations
        assert ps.g3_bound_rejections == ss.g3_bound_rejections


class TestExecutorSelection:
    def test_workers_config_selects_process(self, figure1_relation):
        result = discover(figure1_relation, TaneConfig(workers=2))
        assert result.statistics.executor == "process"
        assert result.statistics.workers_used == 2

    def test_serial_is_default(self, figure1_relation):
        stats = discover(figure1_relation, TaneConfig()).statistics
        assert stats.executor == "serial"
        assert stats.worker_chunks == 0
        assert stats.shm_bytes_shipped == 0

    def test_approximate_run_ships_shm(self, random_relation):
        config = TaneConfig(epsilon=0.05, workers=2)
        stats = discover(random_relation, config).statistics
        assert stats.executor == "process"
        assert stats.worker_chunks > 0
        assert stats.shm_bytes_shipped > 0
        assert stats.worker_busy_seconds > 0

    def test_bad_executor_rejected(self):
        with pytest.raises(Exception):
            TaneConfig(executor="thread")

    def test_negative_workers_rejected(self):
        with pytest.raises(Exception):
            TaneConfig(workers=-1)
