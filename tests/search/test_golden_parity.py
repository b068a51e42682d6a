"""Behavior-preservation gate: the refactored stack must reproduce,
bit for bit, the result signatures recorded from the pre-refactor
monolith on ``examples/data/orders.csv``.

The golden file pins dependencies, per-FD errors, keys, and every
deterministic counter for seven scenario configurations (exact,
traced, three approximate measures, lhs-limited, disk store), plus
seven recorded before the measures became formulas over one
contingency table: the five score measures levelwise, and the DFD walk
under ``pdep`` and ``g3``.  Each of those reports at least one
approximate dependency.  Any
drift in any of them is a refactor regression, not a test to update —
unless a change intentionally alters search semantics, in which case
regenerating the goldens must be a reviewed, stated decision.
"""

import json
from pathlib import Path

import pytest

from repro.core.tane import TaneConfig, discover
from repro.datasets.csvio import read_csv
from repro.obs import InMemorySink, Tracer

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_orders.json"

CONFIGS = {
    "exact": lambda: TaneConfig(),
    "exact-traced": lambda: TaneConfig(tracer=Tracer(sinks=[InMemorySink()])),
    "approx-g3-0.1": lambda: TaneConfig(epsilon=0.1),
    "approx-g1-0.05": lambda: TaneConfig(epsilon=0.05, measure="g1"),
    "approx-g2-0.2": lambda: TaneConfig(epsilon=0.2, measure="g2"),
    "exact-maxlhs2": lambda: TaneConfig(max_lhs_size=2),
    "exact-disk": lambda: TaneConfig(store="disk"),
    "approx-pdep-0.2": lambda: TaneConfig(epsilon=0.2, measure="pdep"),
    "approx-tau-0.3": lambda: TaneConfig(epsilon=0.3, measure="tau"),
    "approx-mu_plus-0.2": lambda: TaneConfig(epsilon=0.2, measure="mu_plus"),
    "approx-fi-0.3": lambda: TaneConfig(epsilon=0.3, measure="fi"),
    "approx-rfi-0.3": lambda: TaneConfig(epsilon=0.3, measure="rfi"),
    "dfd-pdep-0.2": lambda: TaneConfig(epsilon=0.2, measure="pdep", strategy="dfd"),
    "dfd-g3-0.1": lambda: TaneConfig(epsilon=0.1, strategy="dfd"),
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def relation(golden):
    return read_csv(Path(__file__).parent.parent.parent / golden["relation"])


def signature(result) -> dict:
    """The golden record of one run: cover, per-FD errors, keys and
    every deterministic counter."""
    stats = result.statistics
    return {
        "counters": {
            "error_computations": stats.error_computations,
            "g3_bound_rejections": stats.g3_bound_rejections,
            "keys_found": stats.keys_found,
            "level_sizes": list(stats.level_sizes),
            "partition_products": stats.partition_products,
            "pruned_level_sizes": list(stats.pruned_level_sizes),
            "validity_tests": stats.validity_tests,
        },
        "errors": sorted([fd.lhs, fd.rhs, fd.error] for fd in result.dependencies),
        "fds": sorted([fd.lhs, fd.rhs] for fd in result.dependencies),
        "keys": sorted(result.keys),
    }


@pytest.mark.parametrize("scenario", sorted(CONFIGS))
def test_scenario_matches_pre_refactor_golden(golden, relation, scenario):
    expected = golden["scenarios"][scenario]
    actual = signature(discover(relation, CONFIGS[scenario]()))
    assert actual["fds"] == expected["fds"], "dependency cover drifted"
    assert actual["errors"] == expected["errors"], "per-FD errors drifted"
    assert actual["keys"] == expected["keys"], "keys drifted"
    assert actual["counters"] == expected["counters"], "deterministic counters drifted"


def test_traced_and_untraced_signatures_agree(golden):
    """Tracing must be observation only: the traced scenario's golden
    equals the untraced one in every dimension."""
    exact = golden["scenarios"]["exact"]
    traced = golden["scenarios"]["exact-traced"]
    assert exact == traced
