"""The closed-form permutation-model bias behind ``rfi``.

:func:`repro.search.measures.expected_mutual_information` is checked
against its definition: the mean of the empirical mutual information
``I(X; sigma(A))`` over *every* permutation ``sigma`` of the rhs
column.  The enumeration shares no code with the formula (no
hypergeometric pmf, no log-factorials), so agreement on every shape
with ``n <= 8`` pins the formula, the singleton and equal-size
grouping, and the support bounds.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search import measures
from repro.search.measures import expected_mutual_information


@lru_cache(maxsize=None)
def _all_permutations(n: int) -> np.ndarray:
    """Every permutation of ``range(n)``, one per row."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)


def _labels(values) -> np.ndarray:
    """Dense integer labels ``0..k-1`` for a value list."""
    return np.unique(np.asarray(values), return_inverse=True)[1].ravel()


def _enumerated_mean_mi(lhs, rhs) -> float:
    """Mean of ``I(X; A_sigma)`` in nats over all permutations sigma."""
    x, a = _labels(lhs), _labels(rhs)
    n = len(x)
    nx, na = int(x.max()) + 1, int(a.max()) + 1
    shuffled = a[_all_permutations(n)]
    cells = nx * na
    codes = x * na + shuffled + cells * np.arange(len(shuffled))[:, None]
    joint = np.bincount(codes.ravel(), minlength=len(shuffled) * cells)
    joint = joint.reshape(len(shuffled), cells).astype(np.float64)
    x_size = np.repeat(np.bincount(x, minlength=nx), na).astype(np.float64)
    a_size = np.tile(np.bincount(a, minlength=na), nx).astype(np.float64)
    safe = np.where(joint > 0, joint, 1.0)
    terms = np.where(joint > 0, (joint / n) * np.log(n * safe / (x_size * a_size)), 0.0)
    return float(terms.sum(axis=1).mean())


@st.composite
def columns(draw):
    """An lhs and an rhs column over ``1 <= n <= 8`` rows."""
    n = draw(st.integers(min_value=1, max_value=8))
    values = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return draw(values), draw(values)


def _stripped_sizes(lhs) -> list[int]:
    return [int(c) for c in np.bincount(_labels(lhs)) if c >= 2]


def _value_counts(rhs) -> list[int]:
    return [int(c) for c in np.bincount(_labels(rhs))]


class TestAgainstEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(columns())
    def test_equals_mean_over_every_rhs_permutation(self, pair):
        lhs, rhs = pair
        expected = _enumerated_mean_mi(lhs, rhs)
        got = expected_mutual_information(
            _stripped_sizes(lhs), _value_counts(rhs), len(lhs)
        )
        assert got == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(columns())
    def test_explicit_singletons_change_nothing(self, pair):
        # The search passes stripped classes only; the oracle passes
        # every group, singletons included.  Both must agree.
        lhs, rhs = pair
        every_size = [int(c) for c in np.bincount(_labels(lhs))]
        counts = _value_counts(rhs)
        assert expected_mutual_information(
            every_size, counts, len(lhs)
        ) == pytest.approx(
            expected_mutual_information(_stripped_sizes(lhs), counts, len(lhs)),
            abs=1e-12,
        )


class TestShape:
    def test_split_value(self):
        # Classes {2, 2}, value counts {1, 1, 2} over 4 rows.
        assert expected_mutual_information([2, 2], [1, 1, 2], 4) == pytest.approx(
            (2.0 / 3.0) * math.log(2.0), abs=1e-15
        )

    def test_function_of_the_multisets_only(self):
        first = expected_mutual_information([5, 3, 3, 2], [7, 4, 4, 1], 20)
        second = expected_mutual_information([2, 3, 5, 3], [1, 4, 7, 4], 20)
        assert first == second

    def test_all_singletons_carry_the_whole_entropy(self):
        # A key: every row its own class, so I(X; A_sigma) = H(A).
        counts = np.array([3, 2, 1])
        entropy = float(-(counts / 6 * np.log(counts / 6)).sum())
        assert expected_mutual_information([], counts, 6) == pytest.approx(
            entropy, abs=1e-12
        )

    @pytest.mark.parametrize(
        "sizes,counts,n",
        [([], [1], 1), ([4], [4], 4), ([2, 2], [4], 4), ([3], [1, 2], 0)],
    )
    def test_degenerate_inputs_are_zero(self, sizes, counts, n):
        assert expected_mutual_information(sizes, counts, n) == 0.0

    def test_one_class_carries_no_information(self):
        assert expected_mutual_information([10], [4, 3, 3], 10) == 0.0

    def test_chunking_does_not_change_the_value(self, monkeypatch):
        # Tall relations split the (a, b, k) terms into chunks; any
        # chunk size must give the one-pass value.
        sizes, counts = list(range(2, 40)), list(range(1, 39)) + [38]
        n = sum(sizes)
        assert sum(counts) == n
        one_pass = expected_mutual_information(sizes, counts, n)
        monkeypatch.setattr(measures, "_EMI_CHUNK_TERMS", 7)
        assert expected_mutual_information(sizes, counts, n) == pytest.approx(
            one_pass, rel=1e-12
        )
