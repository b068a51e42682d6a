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

from collections import deque
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


def _solve() -> dict[tuple[int, int, int], int]:
    """Retrograde analysis of the KRK endgame.

    Returns the value of every legal black-to-move position:
    ``_DRAW`` or the number of White moves to mate (0 = already mate).
    """
    # Enumerate legal positions for both sides.
    btm_index: dict[tuple[int, int, int], int] = {}
    wtm_index: dict[tuple[int, int, int], int] = {}
    for wk in range(64):
        for wr in range(64):
            for bk in range(64):
                if not _static_legal(wk, wr, bk):
                    continue
                position = (wk, wr, bk)
                btm_index[position] = len(btm_index)
                if not _black_in_check(wk, wr, bk):
                    wtm_index[position] = len(wtm_index)
    btm_positions = list(btm_index)
    wtm_positions = list(wtm_index)

    # Forward successor lists, then invert into predecessor lists.
    value_b = np.full(len(btm_positions), -2, dtype=np.int8)  # -2 unknown
    value_w = np.full(len(wtm_positions), -2, dtype=np.int8)
    counter_b = np.zeros(len(btm_positions), dtype=np.int8)
    pred_b: list[list[int]] = [[] for _ in btm_positions]  # white moves into btm
    pred_w: list[list[int]] = [[] for _ in wtm_positions]  # black moves into wtm

    initial_mates: list[int] = []
    for i, position in enumerate(btm_positions):
        successors, can_draw = _black_moves(*position)
        if can_draw:
            value_b[i] = _DRAW
            continue
        if not successors:
            if _black_in_check(*position):
                value_b[i] = 0  # checkmate
                initial_mates.append(i)
            else:
                value_b[i] = _DRAW  # stalemate
            continue
        counter_b[i] = len(successors)
        for successor in successors:
            pred_w[wtm_index[successor]].append(i)
    for j, position in enumerate(wtm_positions):
        for successor in _white_moves(*position):
            pred_b[btm_index[successor]].append(j)

    # Breadth-first backward induction, one depth layer at a time.
    frontier_b = deque(initial_mates)
    depth = 0
    while frontier_b:
        frontier_w: list[int] = []
        while frontier_b:
            i = frontier_b.popleft()
            for j in pred_b[i]:
                if value_w[j] == -2:
                    value_w[j] = 1  # marker: assigned this round
                    frontier_w.append(j)
        depth += 1
        next_b: deque[int] = deque()
        for j in frontier_w:
            for i in pred_w[j]:
                if value_b[i] != -2:
                    continue
                counter_b[i] -= 1
                if counter_b[i] == 0:
                    value_b[i] = depth  # black's best is the max = last assigned
                    next_b.append(i)
        frontier_b = next_b
    # Positions never assigned a win depth (value -2) are draws: black
    # holds out forever.
    return {
        position: (int(v) if v >= 0 else _DRAW)
        for position, v in zip(btm_positions, value_b)
    }


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
    values = _solve()
    rows: list[tuple[str, int, str, int, str, int, str]] = []
    distribution: dict[str, int] = {}
    for position, value in values.items():
        if value == -2:
            value = _DRAW
        if position != min(_symmetries(position)):
            continue  # keep one canonical representative per symmetry class
        wk, wr, bk = position
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
    call performs the retrograde analysis (a few seconds) and caches
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
