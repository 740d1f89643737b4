"""The left-right diagram game and its structure constants.

A game for (J, K) starts from the shading J | K and plays one row per
element of J & K, in increasing order.  A row is one step of the run rule,
``intervals.run_step``: the maximal shaded run {a, ..., b} around the
element gains a dark box at a-1 (LEFT) or b+1 (RIGHT), with the step's
weight, if that column is in {1, ..., n-1}.  d_JK^L is the weight sum of
the games that end on L, times m_factor(L) / (m_factor(J) * m_factor(K)),
so the game depends on (J, K) only through (J | K, J & K).  Only the
listings build Fractions, and they import them when they do.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import ConsistencyError, Row, class_tail, expansion
from .intervals import IndexSet, decompose_mask, m_factor, run_step

__all__ = ["Move", "GameRow", "LeftRightDiagram", "enumerate_diagrams", "weight",
           "structure_constant", "expand_all", "diagram_row", "render_ascii"]


class Move(str, Enum):
    """The direction of a row's move: LEFT to a-1, RIGHT to b+1."""

    LEFT = "L"
    RIGHT = "R"


class GameRow(NamedTuple):
    """One played row: the marked element, the run of shaded columns around
    it before the move, the move direction, the darkly-shaded column it
    added, and the rational weight of the move."""

    element: int
    run: tuple[int, int]
    move: Move
    added_column: int
    row_weight: Fraction


class LeftRightDiagram(NamedTuple):
    """A successful game, identified by its move sequence: two diagrams with
    the same final shading but different moves are distinct."""

    n: int
    J: IndexSet
    K: IndexSet
    L: IndexSet
    rows: tuple[GameRow, ...]
    weight: Fraction


def _games(n: int, start: int, marked: int) -> list[tuple[int, tuple, int, int]]:
    """Every successful game at rank n from the shading mask ``start``,
    playing one row per member of the mask ``marked`` in increasing order,
    in LEFT-before-RIGHT order, as (final shading mask, rows, num, den).  A
    row is the step it played, (element, a, b, target, num, den), of weight
    num/den; the game carries the product num/den of its row weights.
    ConsistencyError for a move below column 1."""
    games = [(start, (), 1, 1)]
    for element in (k + 1 for k in range(marked.bit_length()) if marked >> k & 1):
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
def _game_sums(n: int, start: int, marked: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The weight sums of ``_games`` per final shading mask L, times m_factor(L), in order of first
    appearance, as (L, numerator) pairs and their one common denominator."""
    games = _games(n, start, marked)
    denom = math.lcm(*(den for _, _, _, den in games))
    sums: dict[int, int] = {}
    for final, _, num, den in games:
        sums[final] = sums.get(final, 0) + num * (denom // den)
    return tuple((L, decompose_mask(L).m_factor * total) for L, total in sums.items()), denom


def enumerate_diagrams(J: IndexSet, K: IndexSet, L: IndexSet) -> list[LeftRightDiagram]:
    """All successful games for (J, K, L), in LEFT-before-RIGHT branch
    order; [] for a triple off the support or degree condition.  ValueError
    for mismatched ranks."""
    from fractions import Fraction

    J._check_same_rank(L)
    diagrams = []
    for shading, played, num, den in _games(J.n, J.union(K).mask, J.mask & K.mask):
        if shading != L.mask:
            continue
        rows = tuple(
            GameRow(element, (a, b), Move.LEFT if target < a else Move.RIGHT, target, Fraction(row_num, row_den))
            for element, a, b, target, row_num, row_den in played
        )
        diagrams.append(LeftRightDiagram(J.n, J, K, L, rows, Fraction(num, den)))
    return diagrams


def weight(P: LeftRightDiagram) -> Fraction:
    """Product of the per-row weights, carried through the game."""
    return P.weight


def structure_constant(J: IndexSet, K: IndexSet, L: IndexSet) -> int:
    """d_JK^L by counting weighted diagrams, through the checked tail: 0
    when there are none, ConsistencyError if the sum is not a non-negative
    integer."""
    found = enumerate_diagrams(J, K, L)
    total = sum(P.weight for P in found)
    row = ((L.mask, m_factor(L) * total.numerator),) if found else ()
    return dict(class_tail("diagram", J.n, J.mask, K.mask, row, total.denominator)).get(L.mask, 0)


def expand_all(J: IndexSet, K: IndexSet) -> dict[IndexSet, int]:
    """The product of the basis classes on J and K by :func:`diagram_row`."""
    return expansion(diagram_row, J, K)


def diagram_row(n: int, J: int, K: int) -> Row:
    """The checked row of the product for the masks J and K at rank n: the
    memoized game sums, divided by m_factor(J) * m_factor(K)."""
    return class_tail("diagram", n, J, K, *_game_sums(n, J | K, J & K))


def render_ascii(P: LeftRightDiagram) -> str:
    """Fixed-width text rendering: a header of the column numbers of L, the
    initial shading row, then one row per game move with the marked box as
    'x', the added dark box as '*', light shading as '#', and the move tag
    and weight on the right."""
    columns = P.L.as_tuple()
    width = max((len(str(c)) for c in columns), default=1) + 2
    label_width = max([3] + [len(str(r.element)) for r in P.rows])

    def line(label: str, cells: Iterable[str]) -> str:
        return label.rjust(label_width) + " |" + "".join(text.rjust(width) for text in cells) + " |"

    shading = P.J.union(P.K).members
    lines = [line("", map(str, columns)), line("", ("#" if c in shading else "" for c in columns))]
    for row in P.rows:
        shading = shading | {row.added_column}
        marks = {row.element: "x", row.added_column: "*"}
        cells = (marks.get(c) or ("#" if c in shading else "") for c in columns)
        lines.append(line(str(row.element), cells) + f" ({row.move.value}) {row.row_weight}")
    return "\n".join(lines)
