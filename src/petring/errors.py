"""Exceptions shared across the package, and ``constants``, the checked
tail that each of the three engines ends in, on bit masks: it refuses a
term off the support and degree condition and a constant that is not a
non-negative integer.  ``expansion`` converts its rows to ``{L: d}``."""

from typing import Callable, Iterable

from . import intervals
from .intervals import IndexSet

__all__ = ["ConsistencyError", "PresentationError", "constants", "class_tail", "expansion"]

Row = tuple[tuple[int, int], ...]  # (L mask, d) pairs, increasing in mask, each d > 0


class ConsistencyError(RuntimeError):
    """A mathematical invariant failed (non-integer or negative structure
    constant, or two engines disagreeing).  Always a bug or bad input, never
    a recoverable condition."""


class PresentationError(RuntimeError):
    """The quadratic relations did not eliminate every non-square-free
    monomial at some degree, so normal forms are not defined there."""


def constants(engine: str, n: int, J: int, K: int, row: Iterable[tuple[int, int]], divisor: int) -> Row:
    """The expansion d_JK^L = value / divisor of the named engine's (L mask,
    value) row at rank n for the masks J and K, sorted by mask, zeros
    dropped.  Every L must lie in {1, ..., n-1}, contain J | K, have |J| + |K|
    members and appear once, and every constant must be a non-negative
    integer; subsets are built only to name them in an error."""
    union, degree = J | K, J.bit_count() + K.bit_count()
    row = sorted(row)
    if row and row[-1][0] >> (n - 1):  # the largest L has a member past n - 1
        L = ",".join(str(k + 1) for k in range(row[-1][0].bit_length()) if row[-1][0] >> k & 1)
        raise ConsistencyError(f"{engine} engine gave a term on L={L} for J={IndexSet.from_mask(n, J)}, "
                               f"K={IndexSet.from_mask(n, K)}, outside {{1, ..., {n - 1}}}")
    out = []
    previous = -1
    for L, value in row:
        d, remainder = divmod(value, divisor)
        if L & union != union or L.bit_count() != degree:
            raise ConsistencyError(f"{engine} engine gave a term on L={IndexSet.from_mask(n, L)} for "
                                   f"J={IndexSet.from_mask(n, J)}, K={IndexSet.from_mask(n, K)}, "
                                   "outside the L containing J | K with |L| = |J| + |K|")
        if L == previous:
            raise ConsistencyError(f"{engine} engine gave two terms on L={IndexSet.from_mask(n, L)} for "
                                   f"J={IndexSet.from_mask(n, J)}, K={IndexSet.from_mask(n, K)}")
        previous = L
        if remainder or d < 0:
            shown = value if divisor == 1 else f"{value}/{divisor}"
            raise ConsistencyError(f"{engine} engine gave d = {shown} for J={IndexSet.from_mask(n, J)}, "
                                   f"K={IndexSet.from_mask(n, K)}, L={IndexSet.from_mask(n, L)}, "
                                   "expected a non-negative integer")
        if d:
            out.append((L, d))
    return tuple(out)


def class_tail(engine: str, n: int, J: int, K: int, row: tuple[tuple[int, int], ...], denom: int) -> Row:
    """The row of (J, K) from a row of the game or linalg that depends only on (J | K, J & K): ``constants``
    over denom * m_factor(J) * m_factor(K), read through ``intervals`` when called; () for an empty row."""
    decompose = intervals.decompose_mask
    return constants(engine, n, J, K, row, denom * decompose(J).m_factor * decompose(K).m_factor) if row else ()


def expansion(engine: Callable[[int, int, int], Row], J: IndexSet, K: IndexSet) -> dict[IndexSet, int]:
    """The row ``engine(n, J mask, K mask)`` as the public {L: d} form."""
    J._check_same_rank(K)
    return {IndexSet.from_mask(J.n, L): d for L, d in engine(J.n, J.mask, K.mask)}
