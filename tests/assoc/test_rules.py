"""Tests for partition-based association-rule mining."""

import pytest

from repro.assoc.rules import AssociationRule, mine_association_rules
from repro.exceptions import ConfigurationError
from repro.model.relation import Relation


@pytest.fixture
def baskets():
    rows = (
        [["student", "energy", "card"]] * 8
        + [["student", "soda", "card"]] * 2
        + [["retired", "water", "cash"]] * 7
        + [["retired", "water", "card"]] * 3
    )
    return Relation.from_rows(rows, ["segment", "drink", "payment"])


def find(rules, lhs, rhs):
    return next((r for r in rules if r.lhs == lhs and r.rhs == rhs), None)


class TestMining:
    def test_confident_rule_found(self, baskets):
        rules = mine_association_rules(baskets, min_support=0.2, min_confidence=0.7)
        rule = find(rules, (("segment", "student"),), ("payment", "card"))
        assert rule is not None
        assert rule.confidence == pytest.approx(1.0)
        assert rule.support == pytest.approx(0.5)

    def test_support_counts_match(self, baskets):
        rules = mine_association_rules(baskets, min_support=0.1, min_confidence=0.5)
        rule = find(rules, (("segment", "retired"),), ("payment", "cash"))
        assert rule is not None
        assert rule.support == pytest.approx(7 / 20)
        assert rule.confidence == pytest.approx(0.7)

    def test_min_confidence_filters(self, baskets):
        rules = mine_association_rules(baskets, min_support=0.1, min_confidence=0.9)
        assert find(rules, (("segment", "retired"),), ("payment", "cash")) is None

    def test_min_support_filters(self, baskets):
        rules = mine_association_rules(baskets, min_support=0.3, min_confidence=0.5)
        # soda appears twice (0.1 support): cannot appear in any rule
        assert all(
            ("drink", "soda") != rule.rhs and ("drink", "soda") not in rule.lhs
            for rule in rules
        )

    def test_two_attribute_lhs(self, baskets):
        rules = mine_association_rules(baskets, min_support=0.2, min_confidence=0.9)
        rule = find(
            rules,
            (("segment", "student"), ("drink", "energy")),
            ("payment", "card"),
        )
        assert rule is not None

    def test_max_lhs_size(self, baskets):
        rules = mine_association_rules(
            baskets, min_support=0.1, min_confidence=0.5, max_lhs_size=1
        )
        assert all(len(rule.lhs) <= 1 for rule in rules)

    def test_empty_lhs_rules(self, baskets):
        rules = mine_association_rules(baskets, min_support=0.4, min_confidence=0.5)
        rule = find(rules, (), ("segment", "student"))
        assert rule is not None
        assert rule.support == pytest.approx(0.5)

    def test_empty_relation(self):
        rel = Relation.from_rows([], ["a", "b"])
        assert mine_association_rules(rel) == []

    def test_rules_sorted_and_formatted(self, baskets):
        rules = mine_association_rules(baskets, min_support=0.1, min_confidence=0.5)
        sizes = [len(rule.lhs) for rule in rules]
        assert sizes == sorted(sizes)
        text = rules[0].format()
        assert "=>" in text and "support=" in text

    def test_bad_parameters(self, baskets):
        with pytest.raises(ConfigurationError):
            mine_association_rules(baskets, min_support=0.0)
        with pytest.raises(ConfigurationError):
            mine_association_rules(baskets, min_confidence=1.5)
        with pytest.raises(ConfigurationError):
            mine_association_rules(baskets, max_lhs_size=-1)


class TestSemantics:
    def test_counts_against_bruteforce(self, baskets):
        """Every emitted rule's support and confidence match a direct count."""
        rules = mine_association_rules(baskets, min_support=0.1, min_confidence=0.5)
        rows = baskets.to_rows()
        names = list(baskets.schema)
        for rule in rules:
            matches_lhs = [
                row for row in rows
                if all(row[names.index(a)] == v for a, v in rule.lhs)
            ]
            rhs_name, rhs_value = rule.rhs
            matches_both = [
                row for row in matches_lhs if row[names.index(rhs_name)] == rhs_value
            ]
            assert rule.support == pytest.approx(len(matches_both) / len(rows))
            assert rule.confidence == pytest.approx(len(matches_both) / len(matches_lhs))

    def test_rule_where_fd_fails(self, baskets):
        """Value-level rules exist although segment -> payment fails."""
        from repro.core.tane import discover_fds

        fds = discover_fds(baskets).dependencies
        formats = {fd.format(baskets.schema) for fd in fds}
        assert "segment -> payment" not in formats
        rules = mine_association_rules(baskets, min_support=0.2, min_confidence=0.95)
        assert find(rules, (("segment", "student"),), ("payment", "card")) is not None
