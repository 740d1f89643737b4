"""Exceptions shared across the package."""

__all__ = ["ConsistencyError", "PresentationError", "integer_constant"]


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
