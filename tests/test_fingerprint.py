"""Fingerprint identity: configs that compute different things must
never share a canonical key (and therefore never share a ResultCache
entry or adopt each other's checkpoints)."""

from repro.core.tane import TaneConfig
from repro.datasets.synthetic import random_relation
from repro.fingerprint import (
    CONFIG_KEY_FIELDS,
    canonical_config_key,
    search_fingerprint,
)
from repro.model.relation import Relation
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

    def test_execution_shape_does_not_change_the_key(self):
        # Stores and injected executors are result-equivalent by the
        # verify harness's contract, so they must share cache entries.
        base = TaneConfig(epsilon=0.3, measure="pdep")
        shaped = TaneConfig(
            epsilon=0.3, measure="pdep", store="disk", executor=SerialExecution()
        )
        assert canonical_config_key(base) == canonical_config_key(shaped)

    def test_key_fields_carry_no_rfi_params(self):
        # rfi's bias is exact: no sampling budget shapes its result.
        assert "rfi_samples" not in CONFIG_KEY_FIELDS
        assert "rfi_seed" not in CONFIG_KEY_FIELDS

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
    def test_measure_recorded_without_rfi_params(self):
        relation = random_relation(10, 3, 3, seed=0)
        config = TaneConfig(epsilon=0.3, measure="rfi")
        fp = search_fingerprint(relation, config, make_strategy("levelwise"))
        assert fp["measure"] == "rfi"
        assert "rfi_samples" not in fp
        assert "rfi_seed" not in fp

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


class TestRelationFingerprint:
    def test_relation_fingerprint_changes_with_data(self):
        left = Relation.from_columns({"A": [0, 0, 1], "B": [1, 2, 2]})
        same = Relation.from_columns({"A": [0, 0, 1], "B": [1, 2, 2]})
        changed = Relation.from_columns({"A": [0, 0, 1], "B": [1, 2, 3]})
        assert left.fingerprint() == same.fingerprint()
        assert left.fingerprint() != changed.fingerprint()
