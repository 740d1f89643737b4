"""The linalg engine: normal forms modulo the quadratic relations

    g_i * (2*g_i - g_{i-1} - g_{i+1}) = 0,   1 <= i <= n-1,   g_0 = g_n = 0,

by exact integer elimination.  It neither uses the run rule nor reads an
m-factor (``errors.class_tail`` applies them), so its structure constants
are an independent cross-check of the other engines.

A normal form is a rational combination of square-free monomials, folded
over the memoized table NF(g_i * x_S) of ``_step``, on integers over one
denominator that does not depend on the route.  ``presentation_failures``
certifies that the forms are unique, so that the square-free monomials are
a basis; ``quotient_dimension`` and the whole relation matrix of
``relations`` are the references that the tests hold it to.
"""

import functools
import math
from collections.abc import Iterable
from itertools import combinations

from .errors import PresentationError, Row, class_tail, expansion
from .intervals import IndexSet

__all__ = ["quotient_dimension", "presentation_failures", "structure_constants_linalg", "linalg_row"]

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
    return sum([1 << k for k, e in enumerate(mono) if e])


def _monomial_exponents(n: int, d: int) -> list[Exponents]:
    """All exponent tuples of length n-1 summing to d, in lexicographic order."""
    if n - 1 == 0:
        return [()] if d == 0 else []
    # stars and bars: bar positions in lexicographic order give the exponents in lexicographic order
    edges = ((-1, *bars, d + n - 2) for bars in combinations(range(d + n - 2), n - 2))
    return [tuple(b - a - 1 for a, b in zip(e, e[1:])) for e in edges]


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


@functools.lru_cache(maxsize=None)
def _own_row(mono: Exponents) -> dict[Exponents, int]:
    """The relation row whose 2*g_j^2 term is the non-square-free monomial ``mono``, with j = _squared(mono);
    memoized, so that its callers share the row and leave it as it is."""
    j = _squared(mono)
    return _relation_row(_bump(mono, j, -2), j)


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
def _step(n: int, i: int, S: int) -> tuple[dict[int, int], int]:
    """The table entry NF(g_i * x_S) for i in the subset with mask S: an integer row keyed by mask, and
    its denominator.  Each non-square-free monomial reached from g_i * x_S brings in the relation row whose
    2*g_j^2 term it is; only these rows are eliminated, by ``_eliminated``.  PresentationError if a
    non-square-free monomial is left over."""
    product = _bump(_exponents(n, S, 0), i, 1)
    squares, todo = set(), [product]
    while todo:
        mono = todo.pop()
        if mono not in squares and _squared(mono):
            squares.add(mono)
            todo.extend(_own_row(mono))
    cols, pivots = _eliminated(tuple(sorted(squares)))
    reduced, denom = _reduce_row({cols.index(product): 1}, pivots)
    if reduced and min(reduced) < len(squares):
        raise PresentationError(f"monomial {cols[min(reduced)]} at rank {n}, degree {S.bit_count() + 1} is neither "
                                "square-free nor eliminated: the relations are incomplete here")
    return {_mask(cols[c]): v for c, v in reduced.items()}, denom


@functools.lru_cache(maxsize=None)
def _eliminated(squares: tuple[Exponents, ...]) -> tuple[list[Exponents], dict[int, dict[int, int]]]:
    """The columns, the sorted squares then the sorted monomials that their relation rows reach, and the pivots
    of those rows: one elimination for every table entry whose product reaches these squares."""
    rows = [_own_row(mono) for mono in squares]
    cols = [*squares, *sorted(set().union(*rows).difference(squares))]
    col_index = {mono: idx for idx, mono in enumerate(cols)}
    return cols, _echelon(({col_index[t]: v for t, v in row.items()} for row in rows), len(cols))


def _combine(parts: Iterable[tuple[int, tuple[dict[int, int], int]]]) -> tuple[dict[int, int], int]:
    """The sum of v * terms / den over the (v, (terms, den)) parts, in one pass: integer terms over a common
    denominator that grows to the lcm of the dens as the parts come, and that lcm; cancelled terms kept as 0."""
    out, scale = {}, 1
    for v, (terms, den) in parts:
        if scale % den:  # the common denominator grows to lcm(scale, den)
            grow = den // math.gcd(scale, den)
            scale *= grow
            for T in out:
                out[T] *= grow
        v *= scale // den
        for T, w in terms.items():
            out[T] = out.get(T, 0) + v * w
    return out, scale


def _times(n: int, i: int, terms: dict[int, int], denom: int) -> tuple[dict[int, int], int]:
    """g_i times the square-free combination terms / denom, by one table step
    per term (g_i * x_S = x_{S+i} for i not in S), over one common
    denominator whose content is divided out.  Returns (terms, denominator)."""
    bit = 1 << (i - 1)
    out, scale = _combine((v, _step(n, i, S) if S & bit else ({S | bit: 1}, 1)) for S, v in terms.items())
    if (g := math.gcd(denom * scale, *out.values())) == 1 and all(out.values()):
        return out, denom * scale
    return {S: v // g for S, v in out.items() if v}, denom * scale // g


@functools.lru_cache(maxsize=None)
def _normal_form(n: int, exps: Exponents) -> tuple[dict[int, int], int]:
    """NF of the monomial with these exponents, as integer terms keyed by
    mask and a denominator.  A square-free monomial is its own form; any
    other is g_j times the form of the monomial with one g_j less, j its
    last squared generator, by one step of ``_times``."""
    j = max([i for i, e in enumerate(exps, start=1) if e > 1], default=0)
    if not j:
        return {_mask(exps): 1}, 1
    return _times(n, j, *_normal_form(n, _bump(exps, j, -1)))


def quotient_dimension(n: int, d: int) -> int:
    """Dimension of degree d of the quotient by the relation ideal: C(n-1, d) less the rank of the forms
    of the degree-d relation rows, as a monomial minus its form lies in the ideal.  ValueError for d < 0,
    PresentationError where a form is not defined."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    if d >= n:
        # no square-free monomial has degree n, and a form that is not
        # square-free raises, so every degree-n monomial reduces to zero: it,
        # and so every multiple of one, lies in the ideal
        for mono in _monomial_exponents(n, n):
            _normal_form(n, mono)
        return 0
    # one relation row per (monomial with g_i squared, i): its 2*g_i^2 term; its form, cancelled terms dropped
    sums = (_combine((v, _normal_form(n, t)) for t, v in _relation_row(_bump(mono, i, -2), i).items())[0]
            for mono in _monomial_exponents(n, d) for i in range(1, n) if mono[i - 1] > 1)
    return math.comb(n - 1, d) - len(_echelon(({S: w for S, w in r.items() if w} for r in sums), math.comb(n - 1, d)))


def presentation_failures(n: int, size: int) -> list[tuple[int, int, int]]:
    """The (S mask, i, j) with |S| = size at which the table, as operators
    T_i = ``_times(n, i, .)`` on the square-free span, fails to be a module
    over the quotient: i < j for T_i T_j x_S != T_j T_i x_S, checked when i
    or j is in S (else both are x_{S+i+j}), and i = j for r_i(T) x_S != 0,
    r_i = g_i (2 g_i - g_{i-1} - g_{i+1}) with boundary terms dropped.

    With no failure for size = 0..n-1, every form is m(T) 1 whatever its
    route, so every relation row's form is zero and every
    ``quotient_dimension`` is a binomial.  Builds no normal form;
    PresentationError for an entry that does not reduce."""
    gens, failures = range(1, n), []
    for S in (S for S in range(1 << (n - 1)) if S.bit_count() == size):
        # T_i x_S, the table entry or x_{S+i}, and zero at i = 0, n
        once = [({}, 1), *(_step(n, i, S) if S >> (i - 1) & 1 else ({S | 1 << (i - 1): 1}, 1) for i in gens), ({}, 1)]
        for i, j in combinations(gens, 2):
            if S & (1 << (i - 1) | 1 << (j - 1)) and _times(n, i, *once[j]) != _times(n, j, *once[i]):
                failures.append((S, i, j))
        for i in gens:
            if _times(n, i, *_combine([(2, once[i]), (-1, once[i - 1]), (-1, once[i + 1])]))[0]:
                failures.append((S, i, i))
    return failures


def structure_constants_linalg(J: IndexSet, K: IndexSet) -> dict[IndexSet, int]:
    """The product of the basis classes on J and K by :func:`linalg_row`."""
    return expansion(linalg_row, J, K)


def _exponents(n: int, union: int, meet: int) -> Exponents:
    """The exponents of x_J * x_K for the masks J | K and J & K at rank n."""
    return tuple([(union >> k & 1) + (meet >> k & 1) for k in range(n - 1)])


def linalg_row(n: int, J: int, K: int) -> Row:
    """The checked row of the masks J and K at rank n: NF(x_J * x_K) through ``class_tail``, with no run rule."""
    if J.bit_count() + K.bit_count() > n - 1:  # the quotient vanishes above the top degree
        return ()
    row, denom = _normal_form(n, _exponents(n, J | K, J & K))
    return class_tail("linalg", n, J, K, row.items(), denom)
