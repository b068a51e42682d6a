"""Exact reconstruction of the Chess (KRK) endgame dataset.

The paper's "Chess" dataset (28056 rows, 7 attributes, a single minimal
dependency) is the UCI ``krkopt`` data: every legal King+Rook vs King
position with Black to move — White king canonicalized into the
a1-d1-d4 triangle — labelled with the optimal number of White moves to
checkmate (``zero`` … ``sixteen``) or ``draw``.

The UCI file is not available offline, but unlike the medical datasets
it is *fully determined* by the rules of chess, so this module rebuilds
it from scratch: enumerate the game graph of the KRK endgame and run a
retrograde (backward-induction) analysis to compute depth-to-mate under
optimal play.  The result matches the published class distribution.

Board model
-----------
Squares are 0..63 with ``file = s % 8``, ``rank = s // 8``.  A position
is ``(wk, wr, bk)``; side to move is tracked separately.  A black move
capturing an undefended rook yields an immediate draw (K vs K).

Depth convention (the UCI one): the class of a black-to-move position
is the number of *White moves* remaining until mate under optimal play
by both sides; a position already in checkmate is ``zero``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.model.relation import Relation

__all__ = ["krk_endgame_relation", "krk_class_distribution", "CLASS_NAMES"]

CLASS_NAMES = (
    "draw", "zero", "one", "two", "three", "four", "five", "six", "seven",
    "eight", "nine", "ten", "eleven", "twelve", "thirteen", "fourteen",
    "fifteen", "sixteen",
)

_DRAW = -1
_FILES = "abcdefgh"

_KING_STEPS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
_ROOK_DIRS = [(-1, 0), (1, 0), (0, -1), (0, 1)]


def _square(file: int, rank: int) -> int:
    return rank * 8 + file


def _neighbors(square: int) -> list[int]:
    file, rank = square % 8, square // 8
    result = []
    for df, dr in _KING_STEPS:
        nf, nr = file + df, rank + dr
        if 0 <= nf < 8 and 0 <= nr < 8:
            result.append(_square(nf, nr))
    return result


_NEIGHBORS = [_neighbors(s) for s in range(64)]
_ADJACENT = [set(n) for n in _NEIGHBORS]


def _rook_attacks(rook: int, target: int, blocker: int) -> bool:
    """Does a rook on ``rook`` attack ``target`` with one ``blocker``?

    The blocker square interrupts the line if strictly between them.
    """
    rf, rr = rook % 8, rook // 8
    tf, tr = target % 8, target // 8
    if rf != tf and rr != tr:
        return False
    if rook == target:
        return False
    bf, br = blocker % 8, blocker // 8
    if rf == tf:  # same file
        low, high = sorted((rr, tr))
        if bf == rf and low < br < high:
            return False
        return True
    low, high = sorted((rf, tf))
    if br == rr and low < bf < high:
        return False
    return True


def _static_legal(wk: int, wr: int, bk: int) -> bool:
    """Piece placement constraints common to both sides to move."""
    if wk == wr or wk == bk or wr == bk:
        return False
    return bk not in _ADJACENT[wk]


def _black_in_check(wk: int, wr: int, bk: int) -> bool:
    return _rook_attacks(wr, bk, wk)


def _black_moves(wk: int, wr: int, bk: int) -> tuple[list[tuple[int, int, int]], bool]:
    """Black king moves from a black-to-move position.

    Returns ``(successor wtm positions, can_draw)`` where ``can_draw``
    is True if black can capture the undefended rook (immediate draw).
    """
    successors: list[tuple[int, int, int]] = []
    can_draw = False
    for target in _NEIGHBORS[bk]:
        if target in _ADJACENT[wk] or target == wk:
            continue
        if target == wr:
            if wr not in _ADJACENT[wk]:  # undefended rook: capture, draw
                can_draw = True
            continue
        # The king vacates its square, so only the white king blocks.
        if _rook_attacks(wr, target, wk):
            continue
        successors.append((wk, wr, target))
    return successors, can_draw


def _white_moves(wk: int, wr: int, bk: int) -> list[tuple[int, int, int]]:
    """White moves from a white-to-move position (black not in check)."""
    successors: list[tuple[int, int, int]] = []
    for target in _NEIGHBORS[wk]:
        if target == wr or target == bk or target in _ADJACENT[bk]:
            continue
        successors.append((target, wr, bk))
    rf, rr = wr % 8, wr // 8
    for df, dr in _ROOK_DIRS:
        nf, nr = rf + df, rr + dr
        while 0 <= nf < 8 and 0 <= nr < 8:
            target = _square(nf, nr)
            if target == wk or target == bk:
                break
            successors.append((wk, target, bk))
            nf += df
            nr += dr
    return successors


# Precomputed board tables for the vectorized solver.  A position is
# the integer id ``wk * 4096 + wr * 64 + bk``.
_FILE_OF = np.arange(64) % 8
_RANK_OF = np.arange(64) // 8
_ADJACENT_TABLE = np.array([[t in around for t in range(64)] for around in _ADJACENT])


def _step_table(steps, length: int) -> np.ndarray:
    """``table[s, d, t]``: the square ``t + 1`` steps from ``s`` along
    direction ``d``, or -1 once off the board."""
    table = np.full((64, len(steps), length), -1, dtype=np.int64)
    for square in range(64):
        for d, (df, dr) in enumerate(steps):
            for t in range(length):
                nf = square % 8 + df * (t + 1)
                nr = square // 8 + dr * (t + 1)
                if 0 <= nf < 8 and 0 <= nr < 8:
                    table[square, d, t] = _square(nf, nr)
    return table


_KING_TABLE = _step_table(_KING_STEPS, 1)[:, :, 0]
_RAY_TABLE = _step_table(_ROOK_DIRS, 7)


def _rook_attacks_many(rook: np.ndarray, target: np.ndarray, blocker: np.ndarray) -> np.ndarray:
    """:func:`_rook_attacks` over arrays of squares."""
    rf, rr = _FILE_OF[rook], _RANK_OF[rook]
    tf, tr = _FILE_OF[target], _RANK_OF[target]
    bf, br = _FILE_OF[blocker], _RANK_OF[blocker]
    blocked_on_file = (
        (rf == tf) & (bf == rf)
        & (np.minimum(rr, tr) < br) & (br < np.maximum(rr, tr))
    )
    blocked_on_rank = (
        (rr == tr) & (br == rr)
        & (np.minimum(rf, tf) < bf) & (bf < np.maximum(rf, tf))
    )
    lined_up = ((rf == tf) | (rr == tr)) & (rook != target)
    return lined_up & ~blocked_on_file & ~blocked_on_rank


def _solve() -> tuple[np.ndarray, np.ndarray]:
    """Retrograde analysis of the KRK endgame.

    Returns the ids of every legal black-to-move position, ascending,
    and the value of each: ``_DRAW`` or the number of White moves to
    mate (0 = already mate).  The move rules are those of
    :func:`_black_moves` and :func:`_white_moves`, applied to all
    positions at once as edge arrays over the position ids.
    """
    ids = np.arange(64 ** 3, dtype=np.int64)
    wk, wr, bk = ids >> 12, (ids >> 6) & 63, ids & 63
    legal = (wk != wr) & (wk != bk) & (wr != bk) & ~_ADJACENT_TABLE[wk, bk]
    in_check = legal & _rook_attacks_many(wr, bk, wk)
    white_to_move = legal & ~in_check

    # Black king moves: btm position -> wtm position (same wk and wr).
    black_from, black_to = [], []
    counter = np.zeros(ids.size, dtype=np.int64)
    can_draw = np.zeros(ids.size, dtype=bool)
    for target in _KING_TABLE[bk].T:
        on_board = legal & (target >= 0)
        target = np.where(on_board, target, 0)
        free = on_board & ~_ADJACENT_TABLE[wk, target] & (target != wk)
        # Capturing the undefended rook is an immediate draw.
        can_draw |= free & (target == wr) & ~_ADJACENT_TABLE[wk, wr]
        # The king vacates its square, so only the white king blocks.
        move = free & (target != wr) & ~_rook_attacks_many(wr, target, wk)
        counter += move
        black_from.append(ids[move])
        black_to.append(ids[move] - bk[move] + target[move])
    black_from = np.concatenate(black_from)
    black_to = np.concatenate(black_to)

    # White moves: wtm position -> btm position.
    white_from, white_to = [], []
    for target in _KING_TABLE[wk].T:
        on_board = white_to_move & (target >= 0)
        target = np.where(on_board, target, 0)
        move = on_board & (target != wr) & (target != bk) & ~_ADJACENT_TABLE[bk, target]
        white_from.append(ids[move])
        white_to.append(ids[move] + ((target[move] - wk[move]) << 12))
    for d in range(len(_ROOK_DIRS)):
        sliding = white_to_move
        for t in range(7):
            target = _RAY_TABLE[wr, d, t]
            sliding = sliding & (target >= 0) & (target != wk) & (target != bk)
            white_from.append(ids[sliding])
            white_to.append(ids[sliding] + ((target[sliding] - wr[sliding]) << 6))
    white_from = np.concatenate(white_from)
    white_to = np.concatenate(white_to)

    value = np.full(ids.size, -2, dtype=np.int64)  # -2 unknown
    value[legal & can_draw] = _DRAW
    stuck = legal & ~can_draw & (counter == 0)
    value[stuck & in_check] = 0  # checkmate
    value[stuck & ~in_check] = _DRAW  # stalemate

    # Breadth-first backward induction, one depth layer at a time: a
    # wtm position wins once any move reaches a lost btm position; a
    # btm position is lost once every one of its moves reaches a won
    # wtm position, at the depth of the last one.
    frontier = stuck & in_check
    white_won = np.zeros(ids.size, dtype=bool)
    depth = 0
    while frontier.any():
        reached = np.zeros(ids.size, dtype=bool)
        reached[white_from[frontier[white_to]]] = True
        newly_won = reached & ~white_won
        white_won |= newly_won
        depth += 1
        hit = newly_won[black_to] & (value[black_from] == -2)
        removed = np.bincount(black_from[hit], minlength=ids.size)
        counter -= removed
        frontier = (removed > 0) & (counter == 0)
        value[frontier] = depth
    # Positions never assigned a win depth are draws: black holds out
    # forever.
    positions = np.flatnonzero(legal)
    values = value[positions]
    values[values == -2] = _DRAW
    return positions, values


def _transform(square: int, flip_f: bool, flip_r: bool, swap: bool) -> int:
    file, rank = square % 8, square // 8
    if flip_f:
        file = 7 - file
    if flip_r:
        rank = 7 - rank
    if swap:
        file, rank = rank, file
    return _square(file, rank)


# The 8 dihedral board transforms as square maps, built once: the
# symmetries of a position are then three tuple lookups per transform.
_SYMMETRY_MAPS = tuple(
    tuple(_transform(square, flip_f, flip_r, swap) for square in range(64))
    for flip_f in (False, True)
    for flip_r in (False, True)
    for swap in (False, True)
)


def _symmetries(position: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """The 8 dihedral board transforms of a position."""
    wk, wr, bk = position
    return [(m[wk], m[wr], m[bk]) for m in _SYMMETRY_MAPS]


@lru_cache(maxsize=1)
def _build_rows() -> tuple[tuple[tuple[str, int, str, int, str, int, str], ...], dict[str, int]]:
    positions, values = _solve()
    # Keep one canonical representative per symmetry class: the
    # position whose id is the least of its 8 transforms (id order is
    # the order of (wk, wr, bk) tuples).
    maps = np.array(_SYMMETRY_MAPS, dtype=np.int64)
    wk, wr, bk = positions >> 12, (positions >> 6) & 63, positions & 63
    transforms = (maps[:, wk] << 12) | (maps[:, wr] << 6) | maps[:, bk]
    canonical = positions == transforms.min(axis=0)
    rows: list[tuple[str, int, str, int, str, int, str]] = []
    distribution: dict[str, int] = {}
    for position, value in zip(positions[canonical].tolist(), values[canonical].tolist()):
        wk, wr, bk = position >> 12, (position >> 6) & 63, position & 63
        label = CLASS_NAMES[0] if value == _DRAW else CLASS_NAMES[value + 1]
        rows.append(
            (
                _FILES[wk % 8], wk // 8 + 1,
                _FILES[wr % 8], wr // 8 + 1,
                _FILES[bk % 8], bk // 8 + 1,
                label,
            )
        )
        distribution[label] = distribution.get(label, 0) + 1
    rows.sort()
    return tuple(rows), distribution


def krk_endgame_relation() -> Relation:
    """The KRK endgame relation: 6 position attributes + outcome class.

    Attribute names follow the UCI krkopt documentation.  The first
    call performs the retrograde analysis (about a second) and caches
    the result for the process lifetime.
    """
    rows, _ = _build_rows()
    names = [
        "white_king_file", "white_king_rank", "white_rook_file",
        "white_rook_rank", "black_king_file", "black_king_rank", "outcome",
    ]
    return Relation.from_rows(list(rows), names)


def krk_class_distribution() -> dict[str, int]:
    """Number of positions per outcome class (for validation)."""
    _, distribution = _build_rows()
    return dict(distribution)
