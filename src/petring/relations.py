"""``Monomial`` and its Fraction ``normal_form``, by ``oracle._normal_form`` read at call time, and the whole
degree-d relation matrix with its echelon pivots, ``_reduced_pivots``: the reference that the tests hold the
linalg engine's table to.  Like ``oracle``, it uses the relations alone, never the run rule."""

import functools
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from . import oracle
from .intervals import Frozen, IndexSet
from .oracle import Exponents, _bump, _echelon, _monomial_exponents, _relation_row, _squared

__all__ = ["Monomial", "RelationMatrix", "relation_rows", "normal_form"]


class Monomial(Frozen):
    """A monomial in the generators, as an exponent tuple; ValueError unless
    it has n-1 non-negative int exponents."""

    __slots__ = _fields = ("n", "exponents")

    def __init__(self, n: int, exponents: Exponents) -> None:
        if len(exponents) != n - 1:
            raise ValueError(f"expected {n - 1} exponents, got {len(exponents)}")
        if any(isinstance(e, bool) or not isinstance(e, int) for e in exponents):
            raise ValueError(f"exponents must be ints, got {exponents!r}")
        if any(e < 0 for e in exponents):
            raise ValueError("negative exponent")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exponents", exponents)

    @classmethod
    def from_multiset(cls, n: int, indices: dict[int, int] | list[int]) -> "Monomial":
        exps = [0] * (n - 1)
        items = indices.items() if isinstance(indices, dict) else [(i, 1) for i in indices]
        for i, mult in items:
            if any(isinstance(v, bool) or not isinstance(v, int) for v in (i, mult)):
                raise ValueError(f"generator index and multiplicity must be ints, got {i!r}: {mult!r}")
            if not 1 <= i <= n - 1:
                raise ValueError(f"generator index {i} out of range for rank {n}")
            exps[i - 1] += mult
        return cls(n, tuple(exps))

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_square_free(self) -> bool:
        return not _squared(self.exponents)


def _columns(n: int, d: int) -> tuple[list[Exponents], dict[Exponents, int]]:
    """Degree-d monomials ordered with non-square-free ones first, each block
    in a fixed lexicographic order."""
    cols = sorted(_monomial_exponents(n, d), key=lambda m: not _squared(m))  # stable: each block stays in order
    return cols, {m: idx for idx, m in enumerate(cols)}


class RelationMatrix(NamedTuple):
    """Sparse relation rows over the degree-d monomial columns."""

    n: int
    degree: int
    columns: tuple[Exponents, ...]
    rows: tuple[dict[int, int], ...]


def relation_rows(n: int, d: int) -> RelationMatrix:
    """One row per (generator i, degree-(d-2) monomial M): the expansion of
    M * g_i * (2*g_i - g_{i-1} - g_{i+1}) with boundary terms dropped.
    ValueError for d < 2."""
    if d < 2:
        raise ValueError("relations exist only in degree >= 2")
    cols, col_index = _columns(n, d)
    lower = _monomial_exponents(n, d - 2)
    rows = tuple(
        {col_index[mono]: v for mono, v in _relation_row(M, i).items()}
        for i in range(1, n)
        for M in lower
    )
    return RelationMatrix(n, d, tuple(cols), rows)


@functools.lru_cache(maxsize=None)
def _reduced_pivots(n: int, d: int) -> tuple[tuple[Exponents, ...], dict[int, dict[int, int]]]:
    """Echelon pivot rows of the whole degree-d relation matrix, non-square-free columns first, each
    column's own row (``_own_row``) before the others: the reference that the tests hold the table and
    ``quotient_dimension`` to.  The rank is exact, as the row order does not change the row space."""
    cols, col_index = _columns(n, d)
    lower = _monomial_exponents(n, d - 2) if d >= 2 else []
    own = (oracle._own_row(mono) for mono in cols if _squared(mono))
    rest = (_relation_row(M, i) for i in range(1, n) for M in lower if _squared(_bump(M, i, 2)) != i)
    rows = ({col_index[t]: v for t, v in row.items()} for row in chain(own, rest))
    return tuple(cols), _echelon(rows, len(cols))


def normal_form(m: Monomial) -> dict[IndexSet, Fraction]:
    """The unique expression of a monomial as a rational combination of
    square-free monomials modulo the relation ideal; PresentationError
    where the relations do not reduce it."""
    row, denom = oracle._normal_form(m.n, m.exponents)
    return {IndexSet.from_mask(m.n, S): Fraction(v, denom) for S, v in row.items()}
