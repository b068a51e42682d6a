"""Test-support utilities shipped with the library.

:mod:`repro.testing.faults` is the fault-injection harness used by the
``tests/resilience`` suite: it arms crashes (exceptions, signals) at
named points in the production code, arms silent result corruption for
the verification harness, and provides file-corruption helpers.
Production modules call its ``check``/``mutate`` hooks, which reduce to
a dict lookup when nothing is armed.

:mod:`repro.testing.strategies` holds the shared hypothesis strategies
for property-based tests.  It is **not** imported here: hypothesis is
a test-only dependency, and this package is imported by production
code (the fault hooks).  Import it explicitly —
``from repro.testing import strategies``.
"""

from repro.testing import faults

__all__ = ["faults"]
