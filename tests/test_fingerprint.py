"""Fingerprint identity: configs that compute different things must
never share a canonical key (and therefore never share a ResultCache
entry or adopt each other's checkpoints)."""

import pytest

from repro.core.tane import TaneConfig
from repro.datasets.synthetic import random_relation
from repro.fingerprint import (
    CONFIG_KEY_FIELDS,
    canonical_config_key,
    search_fingerprint,
)
from repro.search.execution import SerialExecution
from repro.search.measures import MEASURES
from repro.search.strategy import make_strategy


class TestCanonicalConfigKey:
    def test_every_measure_gets_its_own_key(self):
        keys = {
            measure: canonical_config_key(
                TaneConfig(epsilon=0.3, measure=measure)
            )
            for measure in MEASURES
        }
        assert len(set(keys.values())) == len(keys)

    @pytest.mark.parametrize(
        "override", [{"rfi_samples": 64}, {"rfi_seed": 7}]
    )
    def test_rfi_sampling_params_change_the_key(self, override):
        base = TaneConfig(epsilon=0.3, measure="rfi")
        other = TaneConfig(epsilon=0.3, measure="rfi", **override)
        assert canonical_config_key(base) != canonical_config_key(other)

    def test_execution_shape_does_not_change_the_key(self):
        # Stores and injected executors are result-equivalent by the
        # verify harness's contract, so they must share cache entries.
        base = TaneConfig(epsilon=0.3, measure="pdep")
        shaped = TaneConfig(
            epsilon=0.3, measure="pdep", store="disk", executor=SerialExecution()
        )
        assert canonical_config_key(base) == canonical_config_key(shaped)

    def test_key_fields_include_rfi_params(self):
        assert "rfi_samples" in CONFIG_KEY_FIELDS
        assert "rfi_seed" in CONFIG_KEY_FIELDS

    def test_key_fields_include_strategy_params(self):
        for field in ("strategy", "top_k", "topk_rank", "dfd_seed"):
            assert field in CONFIG_KEY_FIELDS

    def test_strategy_configs_never_share_a_key(self):
        # Each of these returns a different dependency set on the same
        # relation, so each must own its cache/checkpoint identity.
        configs = [
            TaneConfig(),
            TaneConfig(strategy="dfd"),
            TaneConfig(strategy="dfd", dfd_seed=1),
            TaneConfig(strategy="topk", top_k=3),
            TaneConfig(strategy="topk", top_k=4),
            TaneConfig(strategy="topk", top_k=3, topk_rank="redundancy"),
        ]
        keys = [canonical_config_key(config) for config in configs]
        assert len(set(keys)) == len(keys)


class TestSearchFingerprint:
    def test_measure_and_rfi_params_recorded(self):
        relation = random_relation(10, 3, 3, seed=0)
        config = TaneConfig(epsilon=0.3, measure="rfi", rfi_samples=16)
        fp = search_fingerprint(relation, config, make_strategy("levelwise"))
        assert fp["measure"] == "rfi"
        assert fp["rfi_samples"] == 16
        assert "rfi_seed" in fp

    def test_strategy_fields_recorded(self):
        # The strategy contributes its own fingerprint fields, so
        # checkpoints never cross strategies, seeds, or rank modes.
        relation = random_relation(10, 3, 3, seed=0)
        dfd = search_fingerprint(
            relation, TaneConfig(strategy="dfd", dfd_seed=7),
            make_strategy("dfd", dfd_seed=7),
        )
        assert dfd["strategy"] == "dfd"
        assert dfd["seed"] == 7
        topk = search_fingerprint(
            relation,
            TaneConfig(strategy="topk", top_k=3, topk_rank="redundancy"),
            make_strategy("topk", top_k=3, topk_rank="redundancy"),
        )
        assert topk["strategy"] == "topk"
        assert (topk["k"], topk["rank"]) == (3, "redundancy")
