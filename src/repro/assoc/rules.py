"""Partition-based association-rule mining.

A functional dependency ``X -> A`` demands that *every* equivalence
class of ``π_X`` is pure in ``A``.  An association rule
``(X = x̄) -> (A = a)`` makes the same claim for a *single* equivalence
class: the class of ``π_X`` with value combination ``x̄``, of which a
``confidence`` fraction falls into the sub-class with additionally
``A = a``.  Support is the matching-row fraction of the whole
relation.

The miner is the levelwise TANE skeleton with two changes, exactly as
Section 8 of the paper sketches: levels carry *frequent* partitions
(equivalence classes below the support threshold are dropped —
dropping classes commutes with the partition product), and rule
extraction compares a class with its sub-classes instead of comparing
whole-partition ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro import _bitset
from repro.core.lattice import generate_next_level
from repro.exceptions import ConfigurationError
from repro.model.relation import Relation
from repro.partition.vectorized import CsrPartition, PartitionWorkspace, batched_products

__all__ = ["AssociationRule", "mine_association_rules"]


@dataclass(frozen=True)
class AssociationRule:
    """An association rule between attribute-value pairs.

    Attributes
    ----------
    lhs:
        Tuple of ``(attribute name, value)`` pairs.
    rhs:
        One ``(attribute name, value)`` pair.
    support:
        Fraction of rows matching lhs *and* rhs.
    confidence:
        Fraction of lhs-matching rows that also match rhs.
    """

    lhs: tuple[tuple[str, Any], ...]
    rhs: tuple[str, Any]
    support: float
    confidence: float

    def format(self) -> str:
        """Render the rule as ``lhs => rhs (support, confidence)``."""
        lhs = " & ".join(f"{name}={value!r}" for name, value in self.lhs)
        name, value = self.rhs
        return (
            f"{lhs or 'true'} => {name}={value!r}"
            f"  (support={self.support:.3f}, confidence={self.confidence:.3f})"
        )


def _filter_frequent(partition: CsrPartition, min_count: int) -> CsrPartition:
    """Drop equivalence classes smaller than ``min_count``."""
    sizes = partition.class_sizes
    keep = sizes >= min_count
    if keep.all():
        return partition
    classes = [
        partition.indices[partition.offsets[k]: partition.offsets[k + 1]]
        for k in range(partition.num_classes)
        if keep[k]
    ]
    return CsrPartition.from_classes(classes, partition.num_rows)


def mine_association_rules(
    relation: Relation,
    min_support: float = 0.1,
    min_confidence: float = 0.8,
    max_lhs_size: int | None = None,
) -> list[AssociationRule]:
    """Mine association rules between attribute-value pairs.

    Parameters
    ----------
    relation:
        The data to mine.
    min_support:
        Minimum fraction of rows matching lhs and rhs together;
        effective support is at least 2 rows because singleton
        equivalence classes are stripped, exactly as in dependency
        discovery.
    min_confidence:
        Minimum confidence of emitted rules.
    max_lhs_size:
        Maximum number of attribute-value pairs on the left-hand side
        (``None`` = no limit, ``0`` = empty-lhs rules only).

    Returns rules sorted by (lhs size, -support, -confidence).
    """
    if not 0.0 < min_support <= 1.0:
        raise ConfigurationError(f"min_support must be in (0, 1], got {min_support}")
    if not 0.0 < min_confidence <= 1.0:
        raise ConfigurationError(f"min_confidence must be in (0, 1], got {min_confidence}")
    if max_lhs_size is not None and max_lhs_size < 0:
        raise ConfigurationError(f"max_lhs_size must be >= 0, got {max_lhs_size}")
    num_rows = relation.num_rows
    if num_rows == 0:
        return []
    min_count = max(2, math.ceil(min_support * num_rows - 1e-9))
    workspace = PartitionWorkspace(num_rows)

    frequent: dict[int, CsrPartition] = {}
    level: list[int] = []
    for index in range(relation.num_attributes):
        partition = CsrPartition.from_column(relation.column_codes(index), num_rows)
        filtered = _filter_frequent(partition, min_count)
        mask = _bitset.bit(index)
        frequent[mask] = filtered
        if filtered.num_classes:
            level.append(mask)

    rules: list[AssociationRule] = []
    # Empty-lhs rules: "true => A=a" for values dominant in the data.
    rules.extend(
        _rules_for_set(
            relation, 0, CsrPartition.single_class(num_rows), min_count, min_confidence
        )
    )
    level_number = 1
    limit = (
        relation.num_attributes
        if max_lhs_size is None
        else min(max_lhs_size, relation.num_attributes)
    )
    while level and level_number <= limit:
        for mask in level:
            rules.extend(
                _rules_for_set(relation, mask, frequent[mask], min_count, min_confidence)
            )
        if level_number == limit:
            break
        next_level: list[int] = []
        triples = generate_next_level(level)
        products = batched_products(
            [(frequent[factor_x], frequent[factor_y]) for _c, factor_x, factor_y in triples],
            workspace,
        )
        for (candidate, _x, _y), product in zip(triples, products):
            product = _filter_frequent(product, min_count)
            if product.num_classes:
                frequent[candidate] = product
                next_level.append(candidate)
        level = next_level
        level_number += 1
    rules.sort(key=lambda rule: (len(rule.lhs), -rule.support, -rule.confidence, rule.rhs))
    return rules


def _rules_for_set(
    relation: Relation,
    lhs_mask: int,
    partition: CsrPartition,
    min_count: int,
    min_confidence: float,
) -> list[AssociationRule]:
    """Extract rules ``(lhs class) => (A = a)`` from one attribute set.

    For each class ``c`` of the frequent lhs partition and each
    attribute ``A`` outside the set, sub-classes of ``c`` with the same
    ``A``-value that clear the support threshold yield candidate rules
    with confidence ``|sub| / |c|``.
    """
    num_rows = relation.num_rows
    lhs_attributes = _bitset.to_indices(lhs_mask)
    rules: list[AssociationRule] = []
    for class_index in range(partition.num_classes):
        start = int(partition.offsets[class_index])
        end = int(partition.offsets[class_index + 1])
        rows = partition.indices[start:end]
        class_size = end - start
        representative = int(rows[0])
        lhs_items = tuple(
            (relation.schema[a], relation.value(representative, a)) for a in lhs_attributes
        )
        for attribute in range(relation.num_attributes):
            if attribute in lhs_attributes:
                continue
            codes = relation.column_codes(attribute)
            counts: dict[int, int] = {}
            sample_row: dict[int, int] = {}
            for row in rows:
                code = int(codes[row])
                counts[code] = counts.get(code, 0) + 1
                sample_row.setdefault(code, int(row))
            for code, count in counts.items():
                if count < min_count:
                    continue
                confidence = count / class_size
                if confidence < min_confidence:
                    continue
                rules.append(
                    AssociationRule(
                        lhs=lhs_items,
                        rhs=(relation.schema[attribute], relation.value(sample_row[code], attribute)),
                        support=count / num_rows,
                        confidence=confidence,
                    )
                )
    return rules
