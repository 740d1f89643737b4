"""The class algebra: a ``CohomologyClass`` is a rational combination of
square-free monomials, and ``multiply`` is the bilinear extension of the
rewrite's checked rows, ``ring._varpi_product``."""

from fractions import Fraction
from itertools import chain

from .intervals import Frozen, IndexSet, m_factor
from .ring import _collect, _varpi_product

__all__ = ["CohomologyClass", "unit", "zero", "monomial", "peterson_schubert_class", "add", "scale",
           "multiply_generator", "multiply", "to_varpi_basis", "integral", "pairing"]

Support = frozenset[int]


class CohomologyClass(Frozen):
    """Rational combination of square-free monomials, {support: coefficient};
    ValueError for a support outside {1, ..., n-1} or a zero coefficient.
    Treated as immutable, and unhashable, as its terms are a dict."""

    __slots__ = _fields = ("n", "terms")

    def __init__(self, n: int, terms: dict[Support, Fraction] | None = None) -> None:
        terms = {} if terms is None else terms
        for support, coeff in terms.items():
            if not all(1 <= i <= n - 1 for i in support):
                raise ValueError(f"support {sorted(support)} invalid for rank {n}")
            if coeff == 0:
                raise ValueError("zero coefficients must be pruned")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Common support size of a homogeneous class; None for zero or mixed."""
        degrees = {len(s) for s in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    _check_same_rank = IndexSet._check_same_rank


def zero(n: int) -> CohomologyClass:
    """The zero class of rank n."""
    return CohomologyClass(n, {})


def unit(n: int) -> CohomologyClass:
    """The unit of rank n, the monomial on the empty set."""
    return monomial(IndexSet(n))


def monomial(J: IndexSet, coeff: Fraction | int = 1) -> CohomologyClass:
    """The square-free monomial on J (product of the generators indexed by J)."""
    coeff = Fraction(coeff)
    if coeff == 0:
        return zero(J.n)
    return CohomologyClass(J.n, {J.members: coeff})


def peterson_schubert_class(J: IndexSet) -> CohomologyClass:
    """The basis class on J: the monomial on J scaled by 1/m_factor(J)."""
    return monomial(J, Fraction(1, m_factor(J)))


def add(c1: CohomologyClass, c2: CohomologyClass) -> CohomologyClass:
    """The sum of two classes; ValueError for mismatched ranks."""
    c1._check_same_rank(c2)
    return CohomologyClass(c1.n, _collect(chain(c1.terms.items(), c2.terms.items())))


def scale(c: CohomologyClass, r: Fraction | int) -> CohomologyClass:
    """The class c times the rational r."""
    r = Fraction(r)
    if r == 0:
        return zero(c.n)
    return CohomologyClass(c.n, {s: coeff * r for s, coeff in c.terms.items()})


def multiply_generator(c: CohomologyClass, i: int) -> CohomologyClass:
    """Multiply by the i-th generator."""
    return multiply(c, monomial(IndexSet.of(c.n, [i])))


def multiply(c1: CohomologyClass, c2: CohomologyClass) -> CohomologyClass:
    """The product of two classes by the rewrite's checked rows; ValueError for mismatched ranks."""
    c1._check_same_rank(c2)
    n = c1.n
    left, right = ({J.mask: r for J, r in to_varpi_basis(c).items()} for c in (c1, c2))
    return CohomologyClass(n, {J.members: Fraction(r, m_factor(J)) for L, r in _varpi_product(n, left, right).items()
                               for J in [IndexSet.from_mask(n, L)]})


def to_varpi_basis(c: CohomologyClass) -> dict[IndexSet, Fraction]:
    """Coefficients in the basis of classes on each support: the monomial
    coefficient on L scaled by m_factor(L)."""
    return {
        IndexSet(c.n, support): coeff * m_factor(IndexSet(c.n, support))
        for support, coeff in c.terms.items()
    }


def integral(c: CohomologyClass) -> Fraction:
    """Evaluation against the fundamental class: (n-1)! times the monomial
    coefficient on the full set {1, ..., n-1}, whose m-factor is (n-1)!."""
    return pairing(IndexSet.full(c.n), c)


def pairing(J: IndexSet, c: CohomologyClass) -> Fraction:
    """Coefficient of the basis class on J in c: m_factor(J) times the
    monomial coefficient on J."""
    J._check_same_rank(c)
    return m_factor(J) * c.terms.get(J.members, Fraction(0))
