"""The vectorized KRK solver's board tables agree with the scalar rules.

``repro.datasets.chess._solve`` applies the move rules to every
position at once through precomputed tables; the scalar move
generators stay the readable statement of those rules.  These checks
tie the two together square by square.
"""

import numpy as np

from repro.datasets.chess import (
    _KING_TABLE,
    _NEIGHBORS,
    _RAY_TABLE,
    _rook_attacks,
    _rook_attacks_many,
)


def test_king_table_lists_the_neighbours():
    for square in range(64):
        steps = [int(s) for s in _KING_TABLE[square] if s >= 0]
        assert sorted(steps) == sorted(_NEIGHBORS[square])


def test_rook_rays_cover_the_rank_and_file():
    for square in range(64):
        reached = {int(s) for s in _RAY_TABLE[square].ravel() if s >= 0}
        line = {
            other for other in range(64)
            if other != square and (other % 8 == square % 8 or other // 8 == square // 8)
        }
        assert reached == line


def test_vectorized_rook_attacks_match_the_scalar_rule():
    ids = np.arange(64 ** 3)
    rook, target, blocker = ids >> 12, (ids >> 6) & 63, ids & 63
    many = _rook_attacks_many(rook, target, blocker)
    scalar = [
        _rook_attacks(r, t, b)
        for r, t, b in zip(rook.tolist(), target.tolist(), blocker.tolist())
    ]
    assert many.tolist() == scalar
