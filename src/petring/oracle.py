"""Independent verification engine based on the quadratic relations.

Arbitrary monomials in the degree-two generators are reduced to rational
combinations of square-free monomials modulo the ideal generated by the
relations

    g_i * (2*g_i - g_{i-1} - g_{i+1}) = 0,   1 <= i <= n-1,

with the boundary convention g_0 = g_n = 0.  No run-rule rewriting is used
anywhere in this module, so its structure constants are an independent
cross-check of the rewrite engine.

One kernel does every elimination: ``_reduce_row`` clears a row's smallest
column with that column's pivot until the smallest column has none, and
returns the row over a positive denominator in lowest terms.
``_echelon`` makes each pivot from a reduced row, lead positive and content
divided out.

Normal forms fold over a memoized table: the entry NF(g_i * x_S) for i in S,
keyed by (n, i, S mask), is an integer row keyed by mask over one
denominator, built by eliminating only the relation rows that the
non-square-free terms of g_i * x_S reach.  Their columns come first, so the
reduction of g_i * x_S stops at a square-free column or at a non-square-free
leftover, which raises PresentationError.  As NF(g_i * m) = NF(g_i * NF(m))
and NF is linear, normal forms are one memoized recursion on (n,
exponents): a square-free monomial is its own form, and any other is g_j
times the form of the monomial with one g_j less, j its last squared
generator, by one step through the table (g_i * x_S = x_{S+i} for i not
in S), on integers over one common denominator whose content is divided
out.  That integer row and
denominator do not depend on the route that built them.
``_class_row`` scales the form of x_J * x_K by m_factor(L), a row that
depends only on (J | K, J & K); ``linalg_row`` ends it in the tail shared
with the game, ``errors.class_tail``.  ``normal_form`` gives Fractions.

The square-free monomials form a basis, so that normal forms are unique,
if the table, as operators T_i on the square-free span, commutes and
satisfies the relations on every x_S.  ``presentation_failures`` checks
that, building no normal form; `verify` runs it.  Then the form of every
relation row is zero, so ``quotient_dimension``, which ranks those forms,
gives binomials: it is the reference.  The full degree-d relation matrix
is eliminated only by the tests' reference, ``_reduced_pivots``.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, combinations
from typing import Iterable, NamedTuple

from .errors import PresentationError, Row, class_tail, expansion
from .intervals import Frozen, IndexSet, decompose_mask

__all__ = ["Monomial", "RelationMatrix", "relation_rows", "normal_form", "quotient_dimension",
           "presentation_failures", "structure_constants_linalg", "linalg_row"]

# A monomial of rank n is its exponent tuple of length n-1 (entry i-1 is the
# multiplicity of generator i).
Exponents = tuple[int, ...]


def _squared(mono: Exponents) -> int:
    """The first generator with exponent above one, or 0 if square-free."""
    for i, e in enumerate(mono, start=1):
        if e > 1:
            return i
    return 0


def _mask(mono: Exponents) -> int:
    """The bit mask of the generators that a monomial contains."""
    return sum(1 << k for k, e in enumerate(mono) if e)


class Monomial(Frozen):
    """A monomial in the generators, as an exponent tuple."""

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


def _monomial_exponents(n: int, d: int) -> list[Exponents]:
    """All exponent tuples of length n-1 summing to d, in lexicographic order."""
    if n - 1 == 0:
        return [()] if d == 0 else []
    # stars and bars via combinations of bar positions, emitted in lex order
    out: list[Exponents] = []
    for bars in combinations(range(d + n - 2), n - 2):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + n - 2 - prev - 1)
        out.append(tuple(exps))
    out.sort()
    return out


def _columns(n: int, d: int) -> tuple[list[Exponents], dict[Exponents, int]]:
    """Degree-d monomials ordered with non-square-free ones first, each block
    in a fixed lexicographic order."""
    monos = _monomial_exponents(n, d)
    non_sf = [m for m in monos if _squared(m)]
    sf = [m for m in monos if not _squared(m)]
    cols = non_sf + sf
    return cols, {m: idx for idx, m in enumerate(cols)}


class RelationMatrix(NamedTuple):
    """Sparse relation rows over the degree-d monomial columns."""

    n: int
    degree: int
    columns: tuple[Exponents, ...]
    rows: tuple[dict[int, int], ...]


def _bump(mono: Exponents, i: int, k: int) -> Exponents:
    """The monomial with the exponent of generator i raised by k."""
    return mono[: i - 1] + (mono[i - 1] + k,) + mono[i:]


def _relation_row(M: Exponents, i: int) -> dict[Exponents, int]:
    """The expansion of M * g_i * (2*g_i - g_{i-1} - g_{i+1}) with boundary
    terms dropped, keyed by exponent tuple (its three monomials differ)."""
    row = {_bump(M, i, 2): 2}
    for j in (i - 1, i + 1):
        if 1 <= j <= len(M):
            row[_bump(_bump(M, i, 1), j, 1)] = -1
    return row


def _own_row(mono: Exponents) -> dict[Exponents, int]:
    """The relation row whose 2*g_j^2 term is the non-square-free monomial
    ``mono``, with j = _squared(mono)."""
    j = _squared(mono)
    return _relation_row(_bump(mono, j, -2), j)


def relation_rows(n: int, d: int) -> RelationMatrix:
    """One row per (generator i, degree-(d-2) monomial M): the expansion of
    M * g_i * (2*g_i - g_{i-1} - g_{i+1}) with boundary terms dropped."""
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


def _reduce_row(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> tuple[dict[int, int], int]:
    """Clear the smallest column of an integer row with that column's pivot
    until the smallest column has none.  A pivot's smallest column is its
    lead, so no column below the cleared one comes back.  Returns (row,
    denominator) in lowest terms with a positive denominator: row /
    denominator is the reduced vector, and its lead is min(row)."""
    denom = 1
    while row and (pivot := pivots.get(c := min(row))):
        g = math.gcd(row[c], pivot[c])
        scale, v = pivot[c] // g, row[c] // g
        denom *= scale
        for col in row:
            row[col] *= scale
        for col, pv in pivot.items():
            if nv := row.get(col, 0) - v * pv:
                row[col] = nv
            else:
                del row[col]
    g = math.gcd(denom, *row.values())
    return {c: v // g for c, v in row.items()}, denom // g


def _echelon(rows: Iterable[dict[int, int]], num_columns: int) -> dict[int, dict[int, int]]:
    """Pivot rows, one per pivot column.  Rows are processed in the given
    order; each settles on its lead after reduction by the pivots found so
    far, with the lead positive and the content divided out, so pivots
    prefer the smallest eligible column.  Stops once all ``num_columns``
    columns have a pivot: the rank can grow no further."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        reduced, _ = _reduce_row(dict(row), pivots)
        if reduced:
            lead = min(reduced)
            g = math.gcd(*reduced.values()) * (1 if reduced[lead] > 0 else -1)
            pivots[lead] = {c: v // g for c, v in reduced.items()}
            if len(pivots) == num_columns:
                break
    return pivots


@functools.lru_cache(maxsize=None)
def _reduced_pivots(n: int, d: int) -> tuple[tuple[Exponents, ...], dict[int, dict[int, int]]]:
    """Echelon pivot rows of the whole degree-d relation matrix, non-square-free
    columns first: the reference that the tests hold the table and
    ``quotient_dimension`` to.  Each non-square-free column's own row
    (``_own_row``) is reduced first, then the other rows in generation
    order, until every column has a pivot.  The rank is exact: the row order
    does not change the row space, and the rank cannot exceed the column
    count.  Below the top degree the square-free columns never get a pivot,
    so every row is reduced."""
    cols, col_index = _columns(n, d)
    lower = _monomial_exponents(n, d - 2) if d >= 2 else []
    own = (_own_row(mono) for mono in cols if _squared(mono))
    rest = (_relation_row(M, i) for i in range(1, n) for M in lower if _squared(_bump(M, i, 2)) != i)
    rows = ({col_index[t]: v for t, v in row.items()} for row in chain(own, rest))
    return tuple(cols), _echelon(rows, len(cols))


@functools.lru_cache(maxsize=None)
def _step(n: int, i: int, S: int) -> tuple[dict[int, int], int]:
    """The table entry NF(g_i * x_S) for i in the subset with mask S: an
    integer row keyed by mask, and its denominator.

    Each non-square-free monomial that appears, starting from g_i * x_S,
    brings in the one relation row whose 2*g_j^2 term it is, until no row
    brings in a new one.  Only these rows are eliminated, with the
    non-square-free columns first so that the pivots land on them; a
    non-square-free monomial left over raises PresentationError.
    """
    product = _bump(tuple(S >> k & 1 for k in range(n - 1)), i, 1)
    relations: dict[Exponents, dict[Exponents, int]] = {}
    todo = [product]
    while todo:
        mono = todo.pop()
        if _squared(mono) and mono not in relations:
            relations[mono] = _own_row(mono)
            todo.extend(relations[mono])
    others = {product}.union(*relations.values()).difference(relations)
    cols = sorted(relations) + sorted(others)
    col_index = {mono: idx for idx, mono in enumerate(cols)}
    pivots = _echelon(
        ({col_index[t]: v for t, v in relations[mono].items()} for mono in cols[: len(relations)]),
        len(cols),
    )
    reduced, denom = _reduce_row({col_index[product]: 1}, pivots)
    if reduced and min(reduced) < len(relations):
        raise PresentationError(f"monomial {cols[min(reduced)]} at rank {n}, degree {S.bit_count() + 1} is neither "
                                "square-free nor eliminated: the relations are incomplete here")
    return {_mask(cols[c]): v for c, v in reduced.items()}, denom


def _combine(parts: list[tuple[int, dict[int, int], int]]) -> tuple[dict[int, int], int]:
    """The sum of v * terms / den over the (v, terms, den) parts, as integer
    terms over the lcm of the denominators, and that lcm; zeros dropped."""
    scale = math.lcm(*[den for _, _, den in parts])
    out: dict[int, int] = {}
    for v, terms, den in parts:
        v *= scale // den
        for S, w in terms.items():
            out[S] = out.get(S, 0) + v * w
    return {S: w for S, w in out.items() if w}, scale


def _times(n: int, i: int, terms: dict[int, int], denom: int) -> tuple[dict[int, int], int]:
    """g_i times the square-free combination terms / denom, by one table step
    per term (g_i * x_S = x_{S+i} for i not in S), over one common
    denominator whose content is divided out.  Returns (terms, denominator)."""
    bit = 1 << (i - 1)
    out, scale = _combine([(v, *_step(n, i, S)) if S & bit else (v, {S | bit: 1}, 1) for S, v in terms.items()])
    g = math.gcd(denom * scale, *out.values())
    return {S: v // g for S, v in out.items()}, denom * scale // g


@functools.lru_cache(maxsize=None)
def _normal_form(n: int, exps: Exponents) -> tuple[dict[int, int], int]:
    """NF of the monomial with these exponents, as integer terms keyed by
    mask and a denominator.  A square-free monomial is its own form; any
    other is g_j times the form of the monomial with one g_j less, j its
    last squared generator, by one step of ``_times``."""
    j = max((i for i, e in enumerate(exps, start=1) if e > 1), default=0)
    if not j:
        return {_mask(exps): 1}, 1
    return _times(n, j, *_normal_form(n, _bump(exps, j, -1)))


def normal_form(m: Monomial) -> dict[IndexSet, Fraction]:
    """The unique expression of a monomial as a rational combination of
    square-free monomials modulo the relation ideal, memoized on (n,
    exponents); no full (n, degree) matrix is built."""
    from fractions import Fraction

    row, denom = _normal_form(m.n, m.exponents)
    return {IndexSet.from_mask(m.n, S): Fraction(v, denom) for S, v in row.items()}


def quotient_dimension(n: int, d: int) -> int:
    """Dimension of degree d of the quotient by the relation ideal, from the
    square-free forms of ``_normal_form``.

    Each table step subtracts only relation rows, so a monomial minus its
    form lies in the ideal, and a square-free monomial is its own form.  So
    degree d of the quotient is the square-free span modulo the forms of
    the degree-d relation rows (with the correct relations every such row
    is zero), and its dimension is C(n-1, d) less their rank.  It is the
    reference for ``presentation_failures``, which `verify` runs instead."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    if d >= n:
        # no square-free monomial has degree n, and a form that is not
        # square-free raises, so every degree-n monomial reduces to zero: it,
        # and so every multiple of one, lies in the ideal
        for mono in _monomial_exponents(n, n):
            _normal_form(n, mono)
        return 0
    # one relation row per (monomial with g_i squared, i): its 2*g_i^2 term
    rows = (_combine([(v, *_normal_form(n, t)) for t, v in _relation_row(_bump(mono, i, -2), i).items()])[0]
            for mono in _monomial_exponents(n, d) for i in range(1, n) if mono[i - 1] > 1)
    return math.comb(n - 1, d) - len(_echelon(filter(None, rows), math.comb(n - 1, d)))


def presentation_failures(n: int, size: int) -> list[tuple[int, int, int]]:
    """The (S mask, i, j) with |S| = size at which the table, as operators
    T_i = ``_times(n, i, .)`` on the square-free span, fails to be a module
    over the quotient: i < j for T_i T_j x_S != T_j T_i x_S, checked when i
    or j is in S (else both are x_{S+i+j}), and i = j for r_i(T) x_S != 0,
    r_i = g_i (2 g_i - g_{i-1} - g_{i+1}) with boundary terms dropped.

    With no failure for size = 0..n-1, every form is m(T) 1 whatever its
    route, and so is every relation row's, which is then zero: every
    ``quotient_dimension`` is a binomial, and every degree-n entry was built.
    No normal form is built; an entry that does not reduce raises."""
    gens, failures = range(1, n), []
    for S in (S for S in range(1 << (n - 1)) if S.bit_count() == size):
        once = [({}, 1), *(_times(n, i, {S: 1}, 1) for i in gens), ({}, 1)]  # T_i x_S, zero at i = 0, n
        for i, j in combinations(gens, 2):
            if S & (1 << (i - 1) | 1 << (j - 1)) and _times(n, i, *once[j]) != _times(n, j, *once[i]):
                failures.append((S, i, j))
        for i in gens:
            if _times(n, i, *_combine([(2, *once[i]), (-1, *once[i - 1]), (-1, *once[i + 1])]))[0]:
                failures.append((S, i, i))
    return failures


def structure_constants_linalg(J: IndexSet, K: IndexSet) -> dict[IndexSet, int]:
    """The product of the basis classes on J and K by :func:`linalg_row`."""
    return expansion(linalg_row, J, K)


@functools.lru_cache(maxsize=None)
def _exponents(n: int, union: int, meet: int) -> Exponents:
    """The exponents of x_J * x_K for the masks J | K and J & K at rank n."""
    return tuple((union >> k & 1) + (meet >> k & 1) for k in range(n - 1))


def _class_row(n: int, union: int, meet: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """NF(x_J * x_K) for the masks J | K and J & K at rank n in the basis of
    classes, (S mask, v * m_factor(S)) for its entries v, and its denominator."""
    if union.bit_count() + meet.bit_count() > n - 1:  # the quotient vanishes above the top degree
        return (), 1
    row, denom = _normal_form(n, _exponents(n, union, meet))
    return tuple((S, v * decompose_mask(S).m_factor) for S, v in row.items()), denom


def linalg_row(n: int, J: int, K: int) -> Row:
    """The checked row of the product for the masks J and K at rank n, with
    no use of the run rule: d_JK^L = v * m_factor(L) / (denominator *
    m_factor(J) * m_factor(K)) for the normal form's entry v on L."""
    return class_tail("linalg", n, J, K, *_class_row(n, J | K, J & K))
