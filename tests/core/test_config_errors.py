"""Pinned error messages for every enumerated TaneConfig knob.

A config error is a user-facing API surface: each message must name
the offending value *and* enumerate every valid choice, so a typo is
self-correcting without a docs round-trip.  One test per knob pins
that contract.
"""

import pytest

from repro.core.tane import TaneConfig
from repro.exceptions import ConfigurationError
from repro.search.execution import SerialExecution


def _config_error(**kwargs) -> str:
    with pytest.raises(ConfigurationError) as excinfo:
        TaneConfig(**kwargs)
    return str(excinfo.value)


class TestKnobMessages:
    def test_measure_enumerates_choices(self):
        message = _config_error(measure="g9")
        assert "unknown measure 'g9'" in message
        for choice in ("'g3'", "'g1'", "'g2'"):
            assert choice in message

    def test_engine_enumerates_choices(self):
        message = _config_error(engine="gpu")
        assert "unknown engine 'gpu'" in message
        for choice in ("'vectorized'", "'pure'"):
            assert choice in message

    def test_executor_enumerates_choices(self):
        message = _config_error(executor="threads")
        assert "unknown executor 'threads'" in message
        # The executor knob takes only injected instances; the message
        # must say so.
        assert "SerialExecution instance" in message

    def test_strategy_enumerates_choices(self):
        message = _config_error(strategy="depthfirst")
        assert "unknown strategy 'depthfirst'" in message
        for choice in ("'levelwise'", "'topk'", "'dfd'"):
            assert choice in message

    def test_topk_rank_enumerates_choices(self):
        message = _config_error(strategy="topk", top_k=3, topk_rank="mmr")
        assert "unknown topk_rank 'mmr'" in message
        for choice in ("'error'", "'redundancy'"):
            assert choice in message

    def test_partition_cache_enumerates_choices(self):
        message = _config_error(partition_cache="global")
        assert "unknown partition_cache 'global'" in message
        for choice in ("'off'", "'shared'"):
            assert choice in message
        # The knob also accepts injected instances; the message says so.
        assert "PartitionCache instance" in message

    def test_partition_cache_levels_lower_bound(self):
        message = _config_error(partition_cache_levels=0)
        assert "partition_cache_levels" in message
        assert ">= 1" in message


class TestTopKCoupling:
    def test_topk_strategy_requires_k(self):
        message = _config_error(strategy="topk")
        assert "strategy='topk' requires top_k >= 1" in message

    def test_negative_k_rejected(self):
        message = _config_error(strategy="topk", top_k=-2)
        assert "top_k must be >= 0" in message

    def test_k_without_topk_strategy_rejected(self):
        message = _config_error(top_k=5)
        assert "only meaningful with strategy='topk'" in message
        assert "'levelwise'" in message

    def test_valid_topk_config_accepted(self):
        config = TaneConfig(strategy="topk", top_k=5)
        assert (config.strategy, config.top_k) == ("topk", 5)

    def test_rank_without_topk_strategy_rejected(self):
        message = _config_error(topk_rank="redundancy")
        assert "only meaningful with strategy='topk'" in message
        assert "'levelwise'" in message

    def test_valid_redundancy_rank_accepted(self):
        config = TaneConfig(strategy="topk", top_k=5, topk_rank="redundancy")
        assert config.topk_rank == "redundancy"


class TestDfdCoupling:
    def test_negative_seed_rejected(self):
        message = _config_error(strategy="dfd", dfd_seed=-1)
        assert "dfd_seed must be >= 0" in message
        assert "-1" in message

    def test_seed_without_dfd_strategy_rejected(self):
        message = _config_error(dfd_seed=7)
        assert "only meaningful with strategy='dfd'" in message
        assert "'levelwise'" in message

    def test_non_monotone_measure_names_the_valid_choices(self):
        message = _config_error(strategy="dfd", epsilon=0.2, measure="mu_plus")
        assert "requires a monotone measure" in message
        assert "'mu_plus'" in message
        # The monotone measures are enumerated; the non-monotone two
        # must not appear as valid choices.
        assert "'g3'" in message
        assert "valid choices" in message
        valid_part = message.split("valid choices")[1]
        assert "'mu_plus'" not in valid_part
        assert "'rfi'" not in valid_part

    def test_valid_dfd_config_accepted(self):
        config = TaneConfig(strategy="dfd", dfd_seed=11)
        assert (config.strategy, config.dfd_seed) == ("dfd", 11)


class TestPureEngineCoupling:
    """The pure engine runs on the in-process executor; the name of the
    retired process executor fails fast."""

    def test_process_executor_name_rejected(self):
        assert "unknown executor 'process'" in _config_error(
            engine="pure", executor="process"
        )

    def test_serial_executor_instance_accepted(self):
        config = TaneConfig(engine="pure", executor=SerialExecution())
        assert config.engine == "pure"
