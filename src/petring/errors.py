"""The package's exceptions, ``constants``, the checked tail that every
engine's row ends in, and ``class_tail``, its one m-factor normalization."""

from collections.abc import Callable, Collection, Iterable

from . import intervals
from .intervals import IndexSet, format_mask

__all__ = ["ConsistencyError", "PresentationError", "constants", "class_tail", "expansion"]

Row = tuple[tuple[int, int], ...]  # (L mask, d) pairs, increasing in mask, each d > 0


class ConsistencyError(RuntimeError):
    """A mathematical invariant failed, such as a constant that is not a
    non-negative integer or two engines that disagree: exit 2 in the CLI."""


class PresentationError(ConsistencyError):
    """The relations leave a non-square-free monomial unreduced at some
    degree, so normal forms are not defined there."""


def constants(engine: str, n: int, J: int, K: int, row: Iterable[tuple[int, int]], divisor: int) -> Row:
    """The row d_JK^L = value / divisor of an engine's (L mask, value) pairs
    for the masks J and K at rank n, sorted by mask, zeros dropped.  Raises
    ConsistencyError, naming the engine, J, K and L, unless every L lies in
    {1, ..., n-1}, contains J | K, has |J| + |K| members and appears once,
    and every value / divisor is a non-negative integer."""
    union, degree = J | K, J.bit_count() + K.bit_count()
    row = sorted(row)
    if row and row[-1][0] >> (n - 1):  # the largest L has a member past n - 1
        raise ConsistencyError(f"{engine} engine gave a term on L={format_mask(row[-1][0])} for J={format_mask(J)}, "
                               f"K={format_mask(K)}, outside {{1, ..., {n - 1}}}")
    out, previous = [], -1
    for L, value in row:
        d, remainder = divmod(value, divisor)
        if L & union != union or L.bit_count() != degree:
            raise ConsistencyError(f"{engine} engine gave a term on L={format_mask(L)} for J={format_mask(J)}, "
                                   f"K={format_mask(K)}, outside the L containing J | K with |L| = |J| + |K|")
        if L == previous:
            raise ConsistencyError(f"{engine} engine gave two terms on L={format_mask(L)} for J={format_mask(J)}, "
                                   f"K={format_mask(K)}")
        previous = L
        if remainder or d < 0:
            shown = value if divisor == 1 else f"{value}/{divisor}"
            raise ConsistencyError(f"{engine} engine gave d = {shown} for J={format_mask(J)}, K={format_mask(K)}, "
                                   f"L={format_mask(L)}, expected a non-negative integer")
        if d:
            out.append((L, d))
    return tuple(out)


def class_tail(engine: str, n: int, J: int, K: int, row: Collection[tuple[int, int]], denom: int) -> Row:
    """``constants`` of the (L, v) pairs of x_J * x_K = sum of v / denom * x_L: d_JK^L = v * m_factor(L) / (denom
    * m_factor(J) * m_factor(K)); () for an empty row.  A patched ``intervals.mask_m_factor`` reaches it."""
    m = intervals.mask_m_factor
    return constants(engine, n, J, K, [(L, v * m(L)) for L, v in row], denom * m(J) * m(K)) if row else ()


def expansion(engine: Callable[[int, int, int], Row], J: IndexSet, K: IndexSet) -> dict[IndexSet, int]:
    """The row ``engine(n, J mask, K mask)`` as {L: d}; ValueError if J and K differ in rank."""
    J._check_same_rank(K)
    return {IndexSet.from_mask(J.n, L): d for L, d in engine(J.n, J.mask, K.mask)}
