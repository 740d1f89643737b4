"""The rewrite engine.

The rewrite multiplies the basis class on J, x_J / m_factor(J), by the
generators of K, one run-rule step at a time in the basis of classes, where
every step's coefficient is a positive integer (Harada-Tymoczko's positive
Monk rule), and divides by m_factor(K).  ``rewrite_rows`` is its one path,
by the one fold ``_fold``, and every row it gives has passed ``constants``.
``_varpi_product`` extends its rows bilinearly to combinations of basis
classes: the product of the class algebra and of `verify`'s top-degree check.
"""

import functools
from collections.abc import Iterable, Iterator

from .errors import ConsistencyError, Row, constants, expansion
from .intervals import IndexSet, decompose_mask, run_step

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
    out: dict[int, int] = {}
    for S, coeff in terms.items():
        for L, step in _transition(n, i, S):
            out[L] = out.get(L, 0) + coeff * step
    return out


@functools.cache
def _transition(n: int, i: int, S: int) -> tuple[tuple[int, int], ...]:
    """Generator i times the basis class on the subset with mask S at rank n, memoized: by the run rule,
    the (L, num * m_L / (den * m_S)) pairs with L = S plus a target.  ConsistencyError for a target
    below column 1 or a division that is not exact."""
    m_S = decompose_mask(S).m_factor
    _, _, den, targets = run_step(S, i, n)
    out = []
    for target, num in targets:
        if target < 1:  # column n is left to the checked tail, which names J and K
            raise ConsistencyError(f"run rule g_{i} from mask {S:b} at rank {n} moves to column {target}")
        L = S | 1 << (target - 1)
        step, remainder = divmod(num * decompose_mask(L).m_factor, den * m_S)
        if remainder:
            raise ConsistencyError(f"run rule g_{i} from mask {S:b} to {L:b} at rank {n} is not integral")
        out.append((L, step))
    return tuple(out)


def structure_constants_rewrite(J: IndexSet, K: IndexSet) -> dict[IndexSet, int]:
    """Expansion of the product of the basis classes on J and K by the
    run-rule engine: the class on J times the generators of K, one at a
    time, divided by m_factor(K)."""
    return expansion(rewrite_row, J, K)


def rewrite_row(n: int, J: int, K: int) -> Row:
    """The checked row of the masks J times K at rank n, () for a zero product: :func:`rewrite_rows` on K alone."""
    return dict(rewrite_rows(n, J, (K,))).get(K, ())


def rewrite_rows(n: int, J: int, ks: Iterable[int]) -> Iterator[tuple[int, Row]]:
    """The nonzero checked rows of the mask J times each mask K of ``ks`` at rank n, as (K, row) in the order of
    ``ks``: each K folded by :func:`_fold` in a prefix memo of J's own."""
    prefix = {0: {J: 1}}
    for K in ks:
        terms = _fold(prefix, K, n)
        if terms:  # zero products, |J| + |K| > n - 1, 40% of a table, skip the tail
            yield K, constants("rewrite", n, J, K, terms.items(), decompose_mask(K).m_factor)


def _fold(prefix: dict[int, dict[int, int]], K: int, n: int) -> dict[int, int]:
    """The kernel's one fold: the class on J, prefix[0] = {J: 1}, times the generators of the subset with mask
    K, in increasing order, as one step from K minus its top element, memoized in ``prefix``."""
    terms = prefix.get(K)
    if terms is None:  # not `if not terms`: an empty fold is falsy
        top = K.bit_length()
        terms = prefix[K] = _varpi_times_generator(_fold(prefix, K ^ 1 << (top - 1), n), top, n)
    return terms
