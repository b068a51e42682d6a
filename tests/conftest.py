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

import numpy as np
import pytest

from repro.model.relation import Relation
from repro.obs.trace import Tracer
from repro.testing.strategies import code_columns, relations

__all__ = [
    "relations",
    "code_columns",
    "figure1_relation",
    "CallbackSink",
    "tracer_calling",
    "level_opens",
]


class CallbackSink:
    """Span sink handing every open and close record to ``callback``."""

    def __init__(self, callback) -> None:
        self.callback = callback

    def record(self, span) -> None:
        self.callback(span)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def tracer_calling(callback) -> Tracer:
    """A tracer whose one sink hands every open and close record to
    ``callback`` — how tests stop a run at a chosen point of its span
    stream (a raising sink aborts the run)."""
    return Tracer(sinks=[CallbackSink(callback)])


def copies_relation() -> Relation:
    """65 attributes: 62 copies of column g, then c, d and a random e,
    so the object-mask (> 63-attribute) walk reaches level 4 with a few
    hundred sets per level.  The 64 rows are every (g, c, d) over four
    values, so each {g, c, d} is a key and none of its subsets is."""
    rng = np.random.default_rng(4)
    values = np.arange(4)
    copied, c, d = (column.ravel() for column in np.meshgrid(values, values, values, indexing="ij"))
    columns = [copied] * 62 + [c, d, rng.integers(0, 3, size=copied.size)]
    return Relation.from_codes(columns, [f"c{i}" for i in range(len(columns))])


def level_opens(span, level: int) -> bool:
    """Is ``span`` the open record of lattice level ``level``?"""
    return span.name == "level" and span.end is None and span.attributes["level"] == level


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
