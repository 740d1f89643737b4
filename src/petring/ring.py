"""The rewrite engine.

The rewrite multiplies x_J * x_K = x_{J|K} * x_{J&K}, the generators of J | K and J & K, one run-rule step at a time
in the basis of classes, where every step's coefficient is a positive integer (Harada-Tymoczko's positive Monk rule),
and divides by m_factor(J) * m_factor(K).  ``rewrite_rows`` is its one path, by one ``_fold`` per class (J | K, J & K),
and its rows pass ``errors.constants``.  ``_varpi_product`` extends its rows bilinearly to combinations of basis
classes: the product of the class algebra and of `verify`'s top-degree check.  The run step, the m-factor memo and
the tail are read where they are defined, at call time, so that a fault planted there reaches the rewrite.
"""

import functools
from collections.abc import Iterable, Iterator

from . import errors, intervals
from .errors import ConsistencyError, Row, expansion

__all__ = ["structure_constants_rewrite", "rewrite_rows", "rewrite_row"]


def _collect(pairs: Iterable[tuple[object, object]]) -> dict:
    """Sum the coefficients of equal keys, dropping the sums that vanish."""
    out: dict = {}
    for key, coeff in pairs:
        out[key] = out.get(key, 0) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def _varpi_product(n: int, left: dict[int, object], right: dict[int, object]) -> dict[int, object]:
    """The product at rank n of two int or Fraction combinations of basis classes keyed by mask: :func:`rewrite_rows`
    of each J of ``left`` on the masks of ``right``, each (L, d) of a row adding r_J r_K d on L."""
    return _collect((L, r * right[K] * d)
                    for J, r in left.items() for K, row in rewrite_rows(n, J, right) for L, d in row)


def _varpi_times_generator(terms: dict[int, int], i: int, n: int) -> dict[int, int]:
    """Generator i times an integer combination of basis classes keyed by
    bit mask, one :func:`_transition` per term."""
    return _collect((L, coeff * step) for S, coeff in terms.items() for L, step in _transition(n, i, S))


@functools.cache
def _transition(n: int, i: int, S: int) -> tuple[tuple[int, int], ...]:
    """Generator i times the basis class on the subset with mask S at rank n, memoized: by the run rule,
    the (L, num * m_L / (den * m_S)) pairs with L = S plus a target.  ConsistencyError for a target
    below column 1 or a division that is not exact."""
    m_S = intervals.mask_m_factor(S)
    _, _, den, targets = intervals.run_step(S, i, n)
    out = []
    for target, num in targets:
        if target < 1:  # column n is left to the checked tail, which names J and K
            raise ConsistencyError(f"run rule g_{i} from mask {S:b} at rank {n} moves to column {target}")
        L = S | 1 << (target - 1)
        step, remainder = divmod(num * intervals.mask_m_factor(L), den * m_S)
        if remainder:
            raise ConsistencyError(f"run rule g_{i} from mask {S:b} to {L:b} at rank {n} is not integral")
        out.append((L, step))
    return tuple(out)


def structure_constants_rewrite(J: intervals.IndexSet, K: intervals.IndexSet) -> dict[intervals.IndexSet, int]:
    """Expansion of the product of the basis classes on J and K by the
    run-rule engine: the generators of J | K and J & K, one at a time,
    divided by m_factor(J) * m_factor(K)."""
    return expansion(rewrite_row, J, K)


def rewrite_row(n: int, J: int, K: int) -> Row:
    """The checked row of the masks J times K at rank n, () for a zero product: :func:`rewrite_rows` on K alone."""
    return dict(rewrite_rows(n, J, (K,))).get(K, ())


def rewrite_rows(n: int, J: int, ks: Iterable[int]) -> Iterator[tuple[int, Row]]:
    """The checked rows of the mask J times each mask K of ``ks`` with |J| + |K| <= n - 1 at rank n, as (K, row) in
    the order of ``ks``: the row its class's :func:`_fold` keeps for m_J * m_K, else the tail's, kept if it passes."""
    m_J = (m := intervals.mask_m_factor)(J)
    for K in ks:
        if J.bit_count() + K.bit_count() < n:  # zero products, 40% of a table, skip the fold and the tail
            terms, rows = _fold(n, J | K, J & K)
            if (row := rows.get(divisor := m_J * m(K))) is None:
                row = rows[divisor] = errors.constants("rewrite", n, J, K, terms.items(), divisor)
            yield K, row


@functools.cache
def _fold(n: int, U: int, M: int) -> tuple[dict[int, int], dict[int, Row]]:
    """The kernel's one fold, memoized: x_U * x_M, the generators of the multiset U + M applied to 1 in increasing
    order, as one step from the class without its last generator, and the class's checked rows by m_J * m_K."""
    if not (top := U.bit_length()):
        return {0: 1}, {}
    last = 1 << (top - 1)
    terms, _ = _fold(n, U, M ^ last) if M & last else _fold(n, U ^ last, M)
    return _varpi_times_generator(terms, top, n), {}
