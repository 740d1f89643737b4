"""The cohomology ring engine.

A :class:`CohomologyClass` is a finite rational combination of square-free
monomials in the degree-two generators, stored as a map from support sets to
coefficients.  Products are computed by the run rule: multiplying by a
generator already present in a term's support splits the maximal consecutive
run {a, ..., b} containing it into a left extension (weight
(b-i+1)/(b-a+2) on the support plus a-1) and a right extension (weight
(i-a+1)/(b-a+2) on the support plus b+1), with the boundary terms at 0 and
n dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConsistencyError
from .intervals import IndexSet, m_factor

__all__ = [
    "CohomologyClass",
    "unit",
    "zero",
    "monomial",
    "peterson_schubert_class",
    "add",
    "scale",
    "multiply_generator",
    "multiply",
    "to_varpi_basis",
    "structure_constants_rewrite",
    "integral",
    "pairing",
]

Support = frozenset[int]


@dataclass(frozen=True)
class CohomologyClass:
    """Rational combination of square-free monomials; zero coefficients are
    never stored.  Treated as immutable: all operations return new values."""

    n: int
    terms: dict[Support, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for support, coeff in self.terms.items():
            if not all(1 <= i <= self.n - 1 for i in support):
                raise ValueError(f"support {sorted(support)} invalid for rank {self.n}")
            if coeff == 0:
                raise ValueError("zero coefficients must be pruned")

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Common support size of a homogeneous class; None for zero or mixed."""
        degrees = {len(s) for s in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def coefficient(self, support: Iterable[int]) -> Fraction:
        return self.terms.get(frozenset(support), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms


def zero(n: int) -> CohomologyClass:
    return CohomologyClass(n, {})


def unit(n: int) -> CohomologyClass:
    return CohomologyClass(n, {frozenset(): Fraction(1)})


def monomial(J: IndexSet, coeff: Fraction | int = 1) -> CohomologyClass:
    """The square-free monomial on J (product of the generators indexed by J)."""
    coeff = Fraction(coeff)
    if coeff == 0:
        return zero(J.n)
    return CohomologyClass(J.n, {J.members: coeff})


def peterson_schubert_class(J: IndexSet) -> CohomologyClass:
    """The basis class on J: the monomial on J scaled by 1/m_factor(J)."""
    return monomial(J, Fraction(1, m_factor(J)))


def _check_same_rank(c1: CohomologyClass, c2: CohomologyClass) -> None:
    if c1.n != c2.n:
        raise ValueError(f"mismatched ambient ranks: {c1.n} vs {c2.n}")


def add(c1: CohomologyClass, c2: CohomologyClass) -> CohomologyClass:
    _check_same_rank(c1, c2)
    terms = dict(c1.terms)
    for support, coeff in c2.terms.items():
        new = terms.get(support, Fraction(0)) + coeff
        if new:
            terms[support] = new
        else:
            terms.pop(support, None)
    return CohomologyClass(c1.n, terms)


def scale(c: CohomologyClass, r: Fraction | int) -> CohomologyClass:
    r = Fraction(r)
    if r == 0:
        return zero(c.n)
    return CohomologyClass(c.n, {s: coeff * r for s, coeff in c.terms.items()})


def multiply_generator(c: CohomologyClass, i: int) -> CohomologyClass:
    """Multiply by the i-th generator, term by term, via the run rule."""
    n = c.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for rank {n}")
    out: dict[Support, Fraction] = {}
    for support, coeff in c.terms.items():
        if i not in support:
            _accumulate(out, support | {i}, coeff)
            continue
        a = i
        while a - 1 in support:
            a -= 1
        b = i
        while b + 1 in support:
            b += 1
        denom = b - a + 2
        if a - 1 >= 1:
            _accumulate(out, support | {a - 1}, coeff * Fraction(b - i + 1, denom))
        if b + 1 <= n - 1:
            _accumulate(out, support | {b + 1}, coeff * Fraction(i - a + 1, denom))
    return CohomologyClass(n, out)


def _accumulate(terms: dict[Support, Fraction], support: Support, coeff: Fraction) -> None:
    new = terms.get(support, Fraction(0)) + coeff
    if new:
        terms[support] = new
    else:
        terms.pop(support, None)


def multiply(
    c1: CohomologyClass,
    c2: CohomologyClass,
    *,
    fold_order: Sequence[int] | None = None,
) -> CohomologyClass:
    """Bilinear product.  Each pair of supports S1, S2 starts from the
    square-free term on S1 | S2 and folds in one generator application per
    element of S1 & S2, in increasing order.  ``fold_order`` overrides the
    order (tests only; the result does not depend on it)."""
    _check_same_rank(c1, c2)
    n = c1.n
    result = zero(n)
    for s1, r1 in c1.terms.items():
        for s2, r2 in c2.terms.items():
            repeated = s1 & s2
            if fold_order is None:
                order = sorted(repeated)
            else:
                order = [i for i in fold_order if i in repeated]
                if len(order) != len(repeated):
                    raise ValueError("fold_order must cover the repeated indices")
            partial = CohomologyClass(n, {s1 | s2: r1 * r2})
            for i in order:
                partial = multiply_generator(partial, i)
            result = add(result, partial)
    return result


def to_varpi_basis(c: CohomologyClass) -> dict[IndexSet, Fraction]:
    """Coefficients in the basis of classes on each support: the monomial
    coefficient on L scaled by m_factor(L)."""
    return {
        IndexSet(c.n, support): coeff * m_factor(IndexSet(c.n, support))
        for support, coeff in c.terms.items()
    }


def structure_constants_rewrite(J: IndexSet, K: IndexSet) -> dict[IndexSet, int]:
    """Expansion of the product of the basis classes on J and K, computed by
    the run-rule engine.  Values are asserted to be non-negative integers
    with support L containing J | K and |L| = |J| + |K|."""
    J._check_same_rank(K)
    expansion = to_varpi_basis(multiply(peterson_schubert_class(J), peterson_schubert_class(K)))
    out: dict[IndexSet, int] = {}
    target = len(J) + len(K)
    for L, coeff in expansion.items():
        if coeff.denominator != 1 or coeff < 0:
            raise ConsistencyError(
                f"structure constant for J={J}, K={K}, L={L} is {coeff}, "
                "expected a non-negative integer"
            )
        if not (J.union(K).issubset(L) and len(L) == target):
            raise ConsistencyError(
                f"support condition violated for J={J}, K={K}: got L={L}"
            )
        out[L] = int(coeff)
    return out


def integral(c: CohomologyClass) -> Fraction:
    """Evaluation against the fundamental class: (n-1)! times the monomial
    coefficient on the full set {1, ..., n-1}."""
    full = frozenset(range(1, c.n))
    return math.factorial(c.n - 1) * c.terms.get(full, Fraction(0))


def pairing(J: IndexSet, c: CohomologyClass) -> Fraction:
    """Coefficient of the basis class on J in c: m_factor(J) times the
    monomial coefficient on J."""
    if J.n != c.n:
        raise ValueError(f"mismatched ambient ranks: {J.n} vs {c.n}")
    return m_factor(J) * c.terms.get(J.members, Fraction(0))
