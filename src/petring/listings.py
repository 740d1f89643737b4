"""The left-right diagrams of one (J, K, L) triple as Fraction listings: each
game of ``diagrams._games`` that ends on L, row by row, with its weight, and
their ASCII rendering; ``print_diagrams`` is the body of the ``diagrams`` command."""

from collections import namedtuple
from collections.abc import Iterable
from enum import Enum
from fractions import Fraction

from .diagrams import _games, expand_all
from .intervals import IndexSet

__all__ = ["Move", "GameRow", "LeftRightDiagram", "enumerate_diagrams", "weight", "structure_constant", "render_ascii",
           "print_diagrams"]


class Move(str, Enum):
    """The direction of a row's move: LEFT to a-1, RIGHT to b+1."""

    LEFT = "L"
    RIGHT = "R"


class GameRow(namedtuple("GameRow", "element run move added_column row_weight")):
    """One played row: the marked element, the run (a, b) of shaded columns
    around it before the move, the Move, the darkly-shaded column it added,
    and the Fraction weight of the move."""

    __slots__ = ()


class LeftRightDiagram(namedtuple("LeftRightDiagram", "n J K L rows weight")):
    """A successful game at rank n for the IndexSets J, K and L, its GameRows
    and their Fraction product, the weight, identified by its move sequence:
    two diagrams with the same final shading but different moves are distinct."""

    __slots__ = ()


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
    """d_JK^L, read from the checked row of ``diagrams.diagram_row``: 0 when
    L has no diagram.  ValueError for mismatched ranks."""
    J._check_same_rank(L)
    return expand_all(J, K).get(L, 0)


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


def print_diagrams(J: IndexSet, K: IndexSet, L: IndexSet) -> None:
    """The ``diagrams`` command's lines: each diagram of (J, K, L) with its weight and rendering, then d."""
    for idx, P in enumerate(found := enumerate_diagrams(J, K, L), start=1):
        print(f"diagram {idx} of {len(found)}  (weight {weight(P)})")
        print(render_ascii(P))
        print("")
    print(f"d = {structure_constant(J, K, L)}" if found else "no diagrams; d = 0")
