"""The left-right diagram game and its structure constants.

A game for (J, K) starts from the shading J | K and plays one row per
element of J & K, in increasing order.  A row is one step of the run rule,
``intervals.run_step``: the maximal shaded run {a, ..., b} around the
element gains a dark box at a-1 (LEFT) or b+1 (RIGHT), with the step's
weight, if that column is in {1, ..., n-1}.  The weight sum of the games
that end on L is the coefficient of x_L in x_J * x_K, which
``errors.class_tail`` turns into d_JK^L: the game depends on (J, K) only
through (J | K, J & K).  The games as Fraction listings are in ``listings``.
"""

import functools
import math

from . import intervals
from .errors import ConsistencyError, Row, class_tail, expansion
from .intervals import IndexSet, run_step

__all__ = ["expand_all", "diagram_row"]


def _games(n: int, start: int, marked: int) -> list[tuple[int, tuple, int, int]]:
    """Every successful game at rank n from the shading mask ``start``,
    playing one row per member of the mask ``marked`` in increasing order,
    in LEFT-before-RIGHT order, as (final shading mask, rows, num, den).  A
    row is the step it played, (element, a, b, target, num, den), of weight
    num/den; the game carries the product num/den of its row weights.
    ConsistencyError for a move below column 1."""
    games = [(start, (), 1, 1)]
    for element in [k + 1 for k in range(marked.bit_length()) if marked >> k & 1]:
        played = []
        for shading, rows, num, den in games:
            a, b, row_den, moves = run_step(shading, element, n)
            for target, row_num in moves:
                if target < 1:
                    raise ConsistencyError(f"run rule g_{element} from mask {shading:b} at rank {n} "
                                           f"moves to column {target}")
                row = (element, a, b, target, row_num, row_den)
                played.append((shading | 1 << (target - 1), rows + (row,), num * row_num, den * row_den))
        games = played
    return games


@functools.lru_cache(maxsize=None)
def _game_sums(n: int, union: int, meet: int) -> tuple[dict[int, int], int, dict[int, Row]]:
    """The weight sums of ``_games`` per final shading mask, in order of first appearance, over their one
    common denominator, and the checked rows of the class found so far, by m_factor(J) * m_factor(K)."""
    games = _games(n, union, meet)
    denom = math.lcm(*[den for _, _, _, den in games])
    sums: dict[int, int] = {}
    for final, _, num, den in games:
        sums[final] = sums.get(final, 0) + num * (denom // den)
    return sums, denom, {}


def expand_all(J: IndexSet, K: IndexSet) -> dict[IndexSet, int]:
    """The product of the basis classes on J and K by :func:`diagram_row`."""
    return expansion(diagram_row, J, K)


def diagram_row(n: int, J: int, K: int) -> Row:
    """The checked row of the masks J and K at rank n: the game sums through ``class_tail``, kept per class and
    m_factor(J) * m_factor(K).  A row that fails the tail is not kept: each pair raises in its own words."""
    sums, denom, rows = _game_sums(n, J | K, J & K)
    m = intervals.mask_m_factor(J) * intervals.mask_m_factor(K)
    if (row := rows.get(m)) is None:
        row = rows[m] = class_tail("diagram", n, J, K, sums.items(), denom)
    return row
