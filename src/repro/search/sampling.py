"""Shared sampling/estimation substrate for the measure suite.

The reliable fraction of information (Mandros et al., "Discovering
Reliable Approximate Functional Dependencies") corrects the empirical
mutual information ``I(X; A)`` by its expectation under the
*permutation model*: hold the grouping of rows by ``X`` fixed, deal
the multiset of ``A``-values into those groups uniformly at random,
and ask how much information the grouping appears to carry about pure
noise.  That expectation has no closed form, so it is estimated by
Monte Carlo here — and the estimator is deliberately **structural**:

* Its inputs are only the multiset of lhs class sizes and the multiset
  of rhs value counts (both canonicalized to descending order), never
  row indices or value codes.  Two relations whose partitions have the
  same shape get byte-identical estimates.
* The RNG is seeded from those canonical shapes via
  :class:`numpy.random.SeedSequence`, not from global state or call
  order.  The estimate is therefore invariant under row shuffles and
  column permutations (the metamorphic layer checks this), identical
  across engines and stores, and stable across checkpoint/resume —
  a resumed run re-evaluates exactly the values the interrupted run
  would have produced.

Every per-sample mutual information is clamped at zero, which keeps
the estimated bias non-negative and hence ``rfi <= fi`` pointwise —
the property test relies on that, not on luck.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = [
    "DEFAULT_RFI_SAMPLES",
    "DEFAULT_RFI_SEED",
    "entropy_from_counts",
    "structural_rng",
    "permutation_mi_bias",
]

DEFAULT_RFI_SAMPLES = 32
"""Default Monte Carlo sample count for the ``rfi`` bias estimate.
Defined here — not on :class:`~repro.core.tane.TaneConfig` — so the
bruteforce oracle and the search core share one source of truth."""

DEFAULT_RFI_SEED = 0
"""Default base seed mixed into the structural seed derivation."""


def entropy_from_counts(counts: np.ndarray, total: int) -> float:
    """Natural-log entropy of a positive count vector summing to ``total``."""
    if total <= 0 or len(counts) == 0:
        return 0.0
    probabilities = counts / total
    return float(-(probabilities * np.log(probabilities)).sum())


def structural_rng(
    base_seed: int,
    num_rows: int,
    class_sizes: Iterable[int],
    value_counts: Iterable[int],
) -> np.random.Generator:
    """A generator seeded by the *shape* of one bias estimation problem.

    The entropy words are the base seed, the row count, and the two
    canonical (descending) size multisets — everything the estimate
    mathematically depends on and nothing it must not depend on (row
    order, attribute numbering, evaluation order).
    """
    words = [int(base_seed), int(num_rows)]
    words.extend(sorted((int(s) for s in class_sizes), reverse=True))
    words.extend(sorted((int(c) for c in value_counts), reverse=True))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def permutation_mi_bias(
    class_sizes: Iterable[int],
    value_counts: Iterable[int],
    num_rows: int,
    *,
    samples: int = DEFAULT_RFI_SAMPLES,
    base_seed: int = DEFAULT_RFI_SEED,
) -> float:
    """Estimate ``E[I(X; A_sigma)]`` under the permutation model, in nats.

    ``class_sizes`` are the sizes of the lhs partition's stripped
    classes (singleton classes contribute zero conditional entropy and
    zero information, so they never need to be materialized);
    ``value_counts`` is the marginal histogram of the rhs attribute
    over the whole relation.  Each sample shuffles the full multiset of
    rhs values and deals the first ``sum(class_sizes)`` of them into
    segments of the canonical class sizes — exactly a uniformly random
    permutation of the rhs column restricted to the stripped classes.
    """
    sizes = sorted((int(s) for s in class_sizes), reverse=True)
    counts = sorted((int(c) for c in value_counts), reverse=True)
    if num_rows <= 0 or samples <= 0 or not sizes or len(counts) <= 1:
        return 0.0
    counts_arr = np.asarray(counts, dtype=np.int64)
    marginal_entropy = entropy_from_counts(counts_arr, num_rows)
    if marginal_entropy <= 0.0:
        return 0.0
    pool = np.repeat(np.arange(len(counts), dtype=np.int64), counts_arr)
    rng = structural_rng(base_seed, num_rows, sizes, counts)
    total = 0.0
    for _ in range(samples):
        rng.shuffle(pool)
        conditional = 0.0
        offset = 0
        for size in sizes:
            segment = pool[offset:offset + size]
            offset += size
            _, segment_counts = np.unique(segment, return_counts=True)
            conditional += (size / num_rows) * entropy_from_counts(
                segment_counts, size
            )
        # Empirical MI is mathematically >= 0; the clamp only absorbs
        # float round-off, and it is what guarantees bias >= 0 and so
        # rfi <= fi on every relation.
        total += max(0.0, marginal_entropy - conditional)
    return total / samples
