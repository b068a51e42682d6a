"""Synthetic relation generators.

All generators are deterministic given a seed and return
:class:`~repro.model.Relation` instances built directly from integer
code columns (the fast constructor), since the discovery algorithms
only care about equality structure.

Generators:

* :func:`random_relation` — independent uniform categorical columns.
* :func:`zipf_relation` — skewed value frequencies (large equivalence
  classes), stressing the partition product.
* :func:`correlated_relation` — columns derived from hidden factors,
  producing realistic numbers of approximate dependencies.
* :func:`planted_fd_relation` — relations with a *known* set of exact
  dependencies planted, used as ground truth in tests.
* :func:`twin_relation` — independent binary columns paired with
  relabeled copies: a wide dep-free interior whose only minimal
  dependencies are the twin equivalences, the adversarial-for-
  levelwise shape the DFD walk is tested on.
* :func:`constant_relation` — degenerate single-value columns.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import _bitset
from repro.exceptions import ConfigurationError
from repro.model.fd import FDSet, FunctionalDependency
from repro.model.relation import Relation

__all__ = [
    "random_relation",
    "zipf_relation",
    "correlated_relation",
    "planted_fd_relation",
    "twin_relation",
    "constant_relation",
    "DEGENERATE_KINDS",
    "degenerate_relation",
]


def _names(num_columns: int, prefix: str = "attr") -> list[str]:
    return [f"{prefix}{i}" for i in range(num_columns)]


def random_relation(
    num_rows: int,
    num_columns: int,
    domain_sizes: int | Sequence[int] = 8,
    seed: int = 0,
) -> Relation:
    """Independent uniform categorical columns.

    ``domain_sizes`` is either one size for every column or a
    per-column sequence.
    """
    if num_columns < 1:
        raise ConfigurationError("need at least one column")
    if isinstance(domain_sizes, int):
        domain_sizes = [domain_sizes] * num_columns
    if len(domain_sizes) != num_columns:
        raise ConfigurationError(
            f"{len(domain_sizes)} domain sizes supplied for {num_columns} columns"
        )
    rng = np.random.default_rng(seed)
    columns = [
        rng.integers(0, max(1, size), size=num_rows, dtype=np.int64)
        for size in domain_sizes
    ]
    return Relation.from_codes(columns, _names(num_columns))


def zipf_relation(
    num_rows: int,
    num_columns: int,
    domain_size: int = 32,
    exponent: float = 1.5,
    seed: int = 0,
) -> Relation:
    """Columns with Zipf-distributed value frequencies.

    Skewed frequencies produce a few very large equivalence classes per
    column — the worst case for the partition product's per-class
    bookkeeping and the scenario where stripped partitions help least.
    """
    if exponent <= 0:
        raise ConfigurationError("zipf exponent must be positive")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, max(2, domain_size) + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    weights /= weights.sum()
    columns = [
        rng.choice(len(weights), size=num_rows, p=weights).astype(np.int64)
        for _ in range(num_columns)
    ]
    return Relation.from_codes(columns, _names(num_columns))


def correlated_relation(
    num_rows: int,
    num_columns: int,
    num_factors: int = 2,
    noise: float = 0.05,
    domain_size: int = 16,
    seed: int = 0,
) -> Relation:
    """Columns functionally driven by hidden factors, plus noise.

    Each column is a random function of one hidden factor column;
    a ``noise`` fraction of its cells is then perturbed.  Columns
    sharing a factor are exactly dependent at ``noise = 0`` and
    approximately dependent for small positive noise — the structure
    that makes approximate discovery (Table 2 of the paper)
    interesting.
    """
    if not 0.0 <= noise <= 1.0:
        raise ConfigurationError(f"noise must be in [0, 1], got {noise}")
    if num_factors < 1:
        raise ConfigurationError("need at least one hidden factor")
    rng = np.random.default_rng(seed)
    factors = [
        rng.integers(0, domain_size, size=num_rows, dtype=np.int64)
        for _ in range(num_factors)
    ]
    columns: list[np.ndarray] = []
    for column_index in range(num_columns):
        factor = factors[column_index % num_factors]
        mapping = rng.integers(0, domain_size, size=domain_size, dtype=np.int64)
        column = mapping[factor]
        if noise > 0:
            flip = rng.random(num_rows) < noise
            column = np.where(
                flip, rng.integers(0, domain_size, size=num_rows, dtype=np.int64), column
            )
        columns.append(column.astype(np.int64))
    return Relation.from_codes(columns, _names(num_columns))


def planted_fd_relation(
    num_rows: int,
    determinant_columns: int,
    dependent_columns: int,
    domain_size: int = 4,
    seed: int = 0,
) -> tuple[Relation, FDSet]:
    """A relation with a known planted dependency structure.

    The first ``determinant_columns`` columns are independent uniform;
    each of the following ``dependent_columns`` columns is an exact
    function of the *full* determinant set (a random hash of the
    determinant value tuple).  Returns the relation and the planted
    dependencies ``{determinants} -> dependent`` (which hold by
    construction, though possibly non-minimally — smaller determinants
    can hold by chance; tests use implication, not equality, against
    this set).
    """
    if determinant_columns < 1 or dependent_columns < 0:
        raise ConfigurationError("invalid column counts")
    rng = np.random.default_rng(seed)
    determinants = [
        rng.integers(0, domain_size, size=num_rows, dtype=np.int64)
        for _ in range(determinant_columns)
    ]
    # Combine the determinant tuple into a single code per row.
    combined = np.zeros(num_rows, dtype=np.int64)
    for column in determinants:
        combined = combined * domain_size + column
    num_combinations = domain_size ** determinant_columns
    columns = list(determinants)
    for _ in range(dependent_columns):
        mapping = rng.integers(0, domain_size, size=num_combinations, dtype=np.int64)
        columns.append(mapping[combined])
    relation = Relation.from_codes(columns, _names(len(columns)))
    lhs_mask = _bitset.mask_of_size(determinant_columns)
    planted = FDSet(
        FunctionalDependency(lhs_mask, determinant_columns + j)
        for j in range(dependent_columns)
    )
    return relation, planted


def twin_relation(
    num_pairs: int,
    num_rows: int = 300,
    seed: int = 0,
) -> Relation:
    """Independent binary columns, each paired with a relabeled copy.

    Column ``d<i>`` is uniform binary; ``r<i>`` is its complement —
    the same partition under different labels, so ``d<i> <-> r<i>``
    are the only minimal dependencies (with enough rows no other
    subset determines anything: every cell of every other candidate
    collides).  The interior of the lattice is therefore completely
    dependency-free, which is the adversarial case for levelwise
    search — no ``C+`` refinement or key pruning ever fires, so it
    must enumerate every subset of the ``d`` columns — while a
    random walk touches only the thin boundary (one minimal
    dependency and one maximal non-dependency per attribute).

    Keep ``num_rows**2`` well above ``2**num_pairs`` so every cell of
    the full ``d``-column crossing holds several rows — otherwise some
    subset becomes an accidental key and sprouts unplanned minimal
    dependencies near the top of the lattice.
    """
    if num_pairs < 1:
        raise ConfigurationError("need at least one column pair")
    rng = np.random.default_rng(seed)
    columns: list[np.ndarray] = []
    names: list[str] = []
    for i in range(num_pairs):
        base = rng.integers(0, 2, size=num_rows, dtype=np.int64)
        columns.append(base)
        names.append(f"d{i}")
        columns.append(1 - base)
        names.append(f"r{i}")
    return Relation.from_codes(columns, names)


def constant_relation(num_rows: int, num_columns: int) -> Relation:
    """Every column constant: all ``∅ -> A`` dependencies hold."""
    columns = [np.zeros(num_rows, dtype=np.int64) for _ in range(num_columns)]
    return Relation.from_codes(columns, _names(num_columns))


DEGENERATE_KINDS = ("empty", "single-row", "single-column", "constant")
"""The shapes :func:`degenerate_relation` can produce."""


def degenerate_relation(
    kind: str,
    num_rows: int = 10,
    num_columns: int = 3,
    domain_size: int = 4,
    seed: int = 0,
) -> Relation:
    """One of the degenerate shapes partition code gets wrong first.

    ``kind`` selects the shape: ``"empty"`` (zero rows), ``"single-row"``
    (one row), ``"single-column"`` (one attribute), or ``"constant"``
    (every column one value).  The non-degenerate dimensions come from
    :func:`random_relation` / :func:`constant_relation`, so the same
    seed reproduces the same relation.  Used by the verification
    harness's fuzz generator pool and the degenerate-oracle tests.
    """
    if kind == "empty":
        return random_relation(0, num_columns, domain_size, seed=seed)
    if kind == "single-row":
        return random_relation(1, num_columns, domain_size, seed=seed)
    if kind == "single-column":
        return random_relation(num_rows, 1, domain_size, seed=seed)
    if kind == "constant":
        return constant_relation(num_rows, num_columns)
    raise ValueError(f"unknown degenerate kind {kind!r}; use one of {DEGENERATE_KINDS}")
