"""The left-right diagrams of one (J, K, L) triple as Fraction listings: each
game of ``diagrams._games`` that ends on L, row by row, with its weight, and
their ASCII rendering, which the ``diagrams`` command prints."""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple

from .diagrams import _games
from .errors import class_tail
from .intervals import IndexSet

__all__ = ["Move", "GameRow", "LeftRightDiagram", "enumerate_diagrams", "weight", "structure_constant", "render_ascii"]


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


def enumerate_diagrams(J: IndexSet, K: IndexSet, L: IndexSet) -> list[LeftRightDiagram]:
    """All successful games for (J, K, L), in LEFT-before-RIGHT branch
    order; [] for a triple off the support or degree condition.  ValueError
    for mismatched ranks."""
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
    total = sum(P.weight for P in enumerate_diagrams(J, K, L))  # every weight is positive
    row = ((L.mask, total.numerator),) if total else ()
    return dict(class_tail("diagram", J.n, J.mask, K.mask, row, total.denominator)).get(L.mask, 0)


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
