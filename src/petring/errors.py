"""Exceptions shared across the package, and ``constants``, the checked
tail that each of the three engines ends in: it refuses a term off the
support and degree condition and a constant that is not a non-negative
integer."""

from typing import Iterable

from .intervals import IndexSet

__all__ = ["ConsistencyError", "PresentationError", "integer_constant", "constants"]


class ConsistencyError(RuntimeError):
    """A mathematical invariant failed (non-integer or negative structure
    constant, or two engines disagreeing).  Always a bug or bad input, never
    a recoverable condition."""


class PresentationError(RuntimeError):
    """The quadratic relations did not eliminate every non-square-free
    monomial at some degree, so normal forms are not defined there."""


def integer_constant(engine: str, J: object, K: object, L: object, value, divisor=1) -> int:
    """d_JK^L = value / divisor as computed by the named engine (integers or
    fractions), checked to be a non-negative integer."""
    quotient, remainder = divmod(value, divisor)
    if remainder or quotient < 0:
        shown = value if divisor == 1 else f"{value}/{divisor}"
        raise ConsistencyError(
            f"{engine} engine gave d = {shown} for J={J}, K={K}, L={L}, expected a non-negative integer"
        )
    return int(quotient)


def constants(engine: str, J: IndexSet, K: IndexSet, row: Iterable[tuple[int, int]], divisor) -> dict[IndexSet, int]:
    """The expansion d_JK^L = value / divisor of the named engine's (L mask,
    value) row, zeros dropped.  Every L must contain J | K and have |J| + |K|
    members, and every constant must be a non-negative integer."""
    union, degree = J.mask | K.mask, J.mask.bit_count() + K.mask.bit_count()
    out: dict[IndexSet, int] = {}
    for mask, value in row:
        L = IndexSet.from_mask(J.n, mask)
        if mask & union != union or mask.bit_count() != degree:
            raise ConsistencyError(f"{engine} engine gave a term on L={L} for J={J}, K={K}, "
                                   "outside the L containing J | K with |L| = |J| + |K|")
        d = integer_constant(engine, J, K, L, value, divisor)
        if d:
            out[L] = d
    return out
