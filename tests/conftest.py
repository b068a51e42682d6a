"""Shared fixtures, strategy re-exports, and collection hooks.

The hypothesis strategies live in :mod:`repro.testing.strategies`
(promoted out of this file so the library ships them); the re-exports
here keep ``from tests.conftest import relations`` / plain
``conftest.relations`` imports working across the suite.

The collection hook auto-skips ``multicore``-marked tests on single-CPU
hosts — those tests assert *genuine* multi-threaded behaviour (the
kernel thread pool's parity and speedup) that a one-core box cannot
exhibit.  Set ``REPRO_FORCE_MULTICORE=1`` to run them anyway.
"""

from __future__ import annotations

import os

import pytest

from repro.model.relation import Relation
from repro.testing.strategies import code_columns, relations

__all__ = ["relations", "code_columns", "figure1_relation"]


@pytest.fixture
def figure1_relation() -> Relation:
    """The example relation from Figure 1 of the paper."""
    rows = [
        [1, "a", "$", "Flower"],
        [1, "A", "L", "Tulip"],
        [2, "A", "$", "Daffodil"],
        [2, "A", "$", "Flower"],
        [2, "b", "L", "Lily"],
        [3, "b", "$", "Orchid"],
        [3, "c", "L", "Flower"],
        [3, "c", "#", "Rose"],
    ]
    return Relation.from_rows(rows, ["A", "B", "C", "D"])


def pytest_collection_modifyitems(config, items):
    """Skip ``multicore`` tests when the host has a single CPU."""
    if os.environ.get("REPRO_FORCE_MULTICORE") == "1":
        return
    cpus = os.cpu_count() or 1
    if cpus >= 2:
        return
    skip = pytest.mark.skip(
        reason=f"needs >= 2 CPUs, host has {cpus} (set REPRO_FORCE_MULTICORE=1 to force)"
    )
    for item in items:
        if "multicore" in item.keywords:
            item.add_marker(skip)
