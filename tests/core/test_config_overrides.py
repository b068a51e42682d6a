"""The convenience wrappers must not clobber an explicit TaneConfig.

Regression tests: ``discover_fds``/``discover_approximate_fds`` used to
pass their keyword defaults (``store="memory"``, ``max_lhs_size=None``)
into ``dataclasses.replace`` unconditionally, silently overriding the
fields of a caller-supplied config.
"""

import pytest

from repro.bench.workloads import FromSingletonsExecutor
from repro.core.tane import TaneConfig, discover_approximate_fds, discover_fds


class TestDiscoverFds:
    def test_config_store_survives(self, figure1_relation):
        config = TaneConfig(
            store="disk",
            store_options=(("resident_budget_bytes", 1), ("min_spill_bytes", 0)),
        )
        result = discover_fds(figure1_relation, config=config)
        assert result.statistics.store_spills > 0

    def test_config_max_lhs_survives(self, figure1_relation):
        unlimited = discover_fds(figure1_relation)
        limited = discover_fds(figure1_relation, config=TaneConfig(max_lhs_size=1))
        assert all(fd.lhs_size <= 1 for fd in limited.dependencies)
        assert len(limited.dependencies) < len(unlimited.dependencies)

    def test_explicit_keyword_still_wins(self, figure1_relation):
        config = TaneConfig(max_lhs_size=1)
        result = discover_fds(figure1_relation, max_lhs_size=2, config=config)
        assert any(fd.lhs_size == 2 for fd in result.dependencies)

    def test_epsilon_always_reset_to_zero(self, figure1_relation):
        result = discover_fds(figure1_relation, config=TaneConfig(epsilon=0.3))
        assert result.epsilon == 0.0


class TestDiscoverApproximateFds:
    def test_config_store_survives(self, figure1_relation):
        config = TaneConfig(
            store="disk",
            store_options=(("resident_budget_bytes", 1), ("min_spill_bytes", 0)),
        )
        result = discover_approximate_fds(figure1_relation, 0.1, config=config)
        assert result.statistics.store_spills > 0

    def test_config_max_lhs_survives(self, figure1_relation):
        result = discover_approximate_fds(
            figure1_relation, 0.1, config=TaneConfig(max_lhs_size=1)
        )
        assert all(fd.lhs_size <= 1 for fd in result.dependencies)

    def test_epsilon_argument_wins(self, figure1_relation):
        result = discover_approximate_fds(
            figure1_relation, 0.25, config=TaneConfig(epsilon=0.9)
        )
        assert result.epsilon == 0.25

    def test_executor_setting_survives(self, figure1_relation):
        executor = FromSingletonsExecutor(figure1_relation)
        discover_approximate_fds(
            figure1_relation, 0.1, config=TaneConfig(executor=executor)
        )
        assert executor.products_computed > 0
