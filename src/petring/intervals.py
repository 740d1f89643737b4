"""Subsets J of {1, ..., n-1} with their rank n, as ``IndexSet`` and as bit masks (bit i-1 for member i), and
``format_mask``, their one text; their maximal runs and m-factors, the latter memoized as ints by ``mask_m_factor``
alone; and ``run_step``, the one statement of the run rule.
"""

import functools
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator

__all__ = ["MAX_RANK", "IndexSet", "ComponentDecomposition", "format_mask", "decompose", "decompose_mask",
           "mask_m_factor", "m_factor", "run_step", "hessenberg_function", "factor_ranks", "all_index_sets"]

# Exhaustive drivers are hopeless beyond this anyway; a fixed cap keeps the
# bit-mask ordering well defined.
MAX_RANK = 32


# not private: argparse names a type function in its message, "invalid decimal value: '1_0'"
def decimal(text: str) -> int:
    """An ASCII decimal numeral with spaces around it, "-" signed or not, as ``int``; ValueError on "1_0" or "+3"."""
    if not (text.isascii() and text.strip().removeprefix("-").isdigit()):
        raise ValueError(f"invalid decimal numeral {text!r}")
    return int(text)


class Frozen:
    """Base of the validated value types, with the behaviour of a frozen
    dataclass over ``_fields``: equality and hash by the field values, a
    repr, pickling through the constructor, and no attribute assignment.
    Each ``__init__`` sets its slots with ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in zip(self._fields, self._values()))})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class IndexSet(Frozen):
    """A subset of {1, ..., n-1} with ambient rank n, and its bit mask, with
    bit i-1 set for each member i: the canonical subset order.  ValueError
    for a rank outside [1, MAX_RANK] or a member outside {1, ..., n-1}."""

    __slots__ = ("n", "members", "mask")
    _fields = ("n", "members")

    def __init__(self, n: int, members: Iterable[int] = frozenset()) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_RANK:
            raise ValueError(f"ambient rank must be an integer in [1, {MAX_RANK}], got {n!r}")
        members = frozenset(members)
        mask = 0
        for m in members:
            if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= n - 1:
                raise ValueError(f"member {m!r} outside {{1, ..., {n - 1}}}")
            mask |= 1 << (m - 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def of(cls, n: int, members: Iterable[int] = ()) -> "IndexSet":
        return cls(n, members)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "IndexSet":
        """Inverse of :attr:`mask`."""
        return cls(n, (i + 1 for i in range(mask.bit_length()) if mask >> i & 1))

    @classmethod
    def full(cls, n: int) -> "IndexSet":
        return cls(n, range(1, n))

    @classmethod
    def parse(cls, text: str, n: int) -> "IndexSet":
        """Parse ascending comma-separated decimals, "-" or "" for the empty set; ValueError on anything else."""
        text = text.strip()
        if text == "-" or text == "":
            return cls(n)
        try:
            parts = [decimal(p) for p in text.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse subset {text!r}") from None
        if parts != sorted(parts) or len(set(parts)) != len(parts):
            raise ValueError(f"subset {text!r} must list distinct integers in ascending order")
        return cls(n, parts)

    def format(self) -> str:
        """Inverse of :meth:`parse`."""
        return format_mask(self.mask)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, item: int) -> bool:
        return item in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    __str__ = format

    def _check_same_rank(self, other: "IndexSet") -> None:
        # shared with ring.CohomologyClass, which also has a rank ``n``
        if self.n != other.n:
            raise ValueError(f"mismatched ambient ranks: {self.n} vs {other.n}")

    def union(self, other: "IndexSet") -> "IndexSet":
        self._check_same_rank(other)
        return IndexSet(self.n, self.members | other.members)

    def intersection(self, other: "IndexSet") -> "IndexSet":
        self._check_same_rank(other)
        return IndexSet(self.n, self.members & other.members)

    def issubset(self, other: "IndexSet") -> bool:
        self._check_same_rank(other)
        return self.members <= other.members

    __or__ = union
    __and__ = intersection


class ComponentDecomposition(namedtuple("ComponentDecomposition", "runs m_factor")):
    """Maximal consecutive runs (lo, hi) of an IndexSet, in ascending order,
    and the product of factorials of the run lengths."""

    __slots__ = ()


def format_mask(mask: int) -> str:
    """The text of the subset with bit mask ``mask`` that :meth:`IndexSet.parse` reads; also for a mask past rank n."""
    return ",".join([str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]) or "-"


def decompose_mask(mask: int) -> ComponentDecomposition:
    """The runs and m-factor of the subset with bit mask ``mask``; by carry arithmetic, not ``run_step``, so that
    the checked tail of linalg's rows, which reads m-factors, never reaches the run rule."""
    runs: list[tuple[int, int]] = []
    m = 1
    while mask:
        low = mask & -mask
        above = (mask + low) & -(mask + low)  # the carry clears the lowest run and sets the bit above it
        runs.append((low.bit_length(), above.bit_length() - 1))
        m *= math.factorial(above.bit_length() - low.bit_length())
        mask &= mask + low
    return ComponentDecomposition(tuple(runs), m)


@functools.cache
def mask_m_factor(mask: int) -> int:
    """The m-factor of the subset with bit mask ``mask``: the one m-factor memo, read by the engines and the tail."""
    return decompose_mask(mask).m_factor


def decompose(J: IndexSet) -> ComponentDecomposition:
    """Split J into maximal runs of consecutive integers."""
    return decompose_mask(J.mask)


def m_factor(J: IndexSet) -> int:
    """Product of factorials of the run lengths of J, 1 for the empty set: the memo's value for its mask."""
    return mask_m_factor(J.mask)


def run_step(mask: int, i: int, n: int) -> tuple[int, int, int, tuple[tuple[int, int], ...]]:
    """The run rule at rank n: g_i times the monomial on the subset with bit
    mask ``mask`` is the sum over the moves (t, num) of num/den times the
    monomial on the subset plus t.  Returns (a, b, den, moves).  For i in
    the subset, {a, ..., b} is its maximal run around i, den = b-a+2 and the
    moves are (a-1, b-i+1) then (b+1, i-a+1), without targets 0 and n; for i
    not in it, the run is empty, (i, i-1), and the one move is (i, 1), den 1."""
    bit = 1 << (i - 1)
    if not mask & bit:
        return i, i - 1, 1, ((i, 1),)
    above = mask >> (i - 1)
    b = i + ((above + 1) & ~above).bit_length() - 2
    a = (~mask & (bit - 1)).bit_length() + 1
    moves = []
    if a > 1:
        moves.append((a - 1, b - i + 1))
    if b < n - 1:
        moves.append((b + 1, i - a + 1))
    return a, b, b - a + 2, tuple(moves)


def hessenberg_function(J: IndexSet) -> list[int]:
    """The function h with h(i) = i+1 for i in J and h(i) = i otherwise,
    returned as the list [h(1), ..., h(n)]."""
    return [i + 1 if i in J else i for i in range(1, J.n + 1)]


def factor_ranks(J: IndexSet) -> list[int]:
    """Run lengths plus one: the ranks of the Peterson factors attached to J."""
    return [hi - lo + 2 for lo, hi in decompose(J).runs]


def all_index_sets(n: int) -> Iterator[IndexSet]:
    """All subsets of {1, ..., n-1} in canonical (bit-mask) order."""
    for mask in range(1 << (n - 1)):
        yield IndexSet.from_mask(n, mask)
