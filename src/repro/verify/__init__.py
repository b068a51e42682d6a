"""Differential and metamorphic verification harness.

Every execution shape the library has grown — vectorized vs. pure
partition engines, memory vs. disk stores, checkpoint/resume cycles,
tracing, pruning-rule ablations — is
*supposed* to produce the same dependencies, keys, per-FD errors, and
deterministic search counters.  This package makes that claim
machine-checkable, from three independent directions:

* :mod:`repro.verify.matrix` + :mod:`repro.verify.runner` — the
  differential layer: one relation through every config cell, each
  diffed against a reference run and the reference checked against the
  bruteforce and FDEP oracles.
* :mod:`repro.verify.metamorphic` — input transformations with
  provable output relations (shuffle, duplication, column permutation,
  row deletion, planted-dependency recovery), plus the cross-measure
  layer (:func:`compare_measures`): every AFD measure in the suite
  must agree on exact dependencies, zero out under violating-row
  deletion, stay invariant under shuffles and column permutations, and
  entail planted dependencies.
* :mod:`repro.verify.fuzz` — seeded generation of relations and
  scenarios, failure shrinking, and self-contained replayable case
  serialization.

The CLI entry point is ``repro verify``; the harness's own tests prove
it catches real bugs by arming the silent-corruption fault point
(:func:`repro.testing.faults.inject_mutation`) and watching the
mismatch get detected, shrunk, and serialized.
"""

from repro.verify.fuzz import (
    FuzzFailure,
    FuzzReport,
    fuzz,
    fuzz_seed,
    relation_for_seed,
    replay_case,
    save_case,
    scenario_for_seed,
    shrink_failure,
)
from repro.verify.matrix import (
    COMPARE_ALL,
    ConfigCell,
    REFERENCE_CELL,
    build_matrix,
    full_matrix,
    smoke_matrix,
)
from repro.verify.metamorphic import (
    MEASURE_RELATIONS,
    check_planted_recovery,
    compare_measures,
    delete_rows,
    delete_violating_rows,
    duplicate_rows,
    permute_columns,
    run_metamorphic,
    shuffle_rows,
)
from repro.verify.report import (
    format_fuzz_report,
    format_mismatch,
    format_report,
    format_trace_digest,
)
from repro.verify.runner import (
    CellRun,
    Mismatch,
    RunSignature,
    Scenario,
    VerificationReport,
    compare_with_oracles,
    run_cell,
    verify_relation,
)

__all__ = [
    "COMPARE_ALL",
    "CellRun",
    "ConfigCell",
    "FuzzFailure",
    "FuzzReport",
    "MEASURE_RELATIONS",
    "Mismatch",
    "REFERENCE_CELL",
    "RunSignature",
    "Scenario",
    "VerificationReport",
    "build_matrix",
    "check_planted_recovery",
    "compare_measures",
    "compare_with_oracles",
    "delete_rows",
    "delete_violating_rows",
    "duplicate_rows",
    "format_fuzz_report",
    "format_mismatch",
    "format_report",
    "format_trace_digest",
    "full_matrix",
    "fuzz",
    "fuzz_seed",
    "permute_columns",
    "relation_for_seed",
    "replay_case",
    "run_cell",
    "run_metamorphic",
    "save_case",
    "scenario_for_seed",
    "shrink_failure",
    "shuffle_rows",
    "smoke_matrix",
    "verify_relation",
]
