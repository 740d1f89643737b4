"""The row contract of the checked tail, ``errors.constants``: each engine
gives an expansion as (L mask, d) pairs, strictly increasing in mask, with
positive int constants, and the public functions return exactly that row
as {L: d}; and ``errors.class_tail``, the one normalization of an engine's
coefficients on the monomials x_L into constants."""

import math
import random
from fractions import Fraction

import pytest

from petring.diagrams import diagram_row, expand_all
from petring.errors import ConsistencyError, class_tail
from petring.intervals import IndexSet
from petring.oracle import linalg_row, structure_constants_linalg
from petring.ring import rewrite_row, rewrite_rows, structure_constants_rewrite

ENGINES = {
    "diagram": (diagram_row, expand_all),
    "rewrite": (rewrite_row, structure_constants_rewrite),
    "linalg": (linalg_row, structure_constants_linalg),
}


def assert_row(row):
    assert type(row) is tuple
    assert all(a < b for (a, _), (b, _) in zip(row, row[1:])), row
    assert all(type(L) is int and type(d) is int and d > 0 for L, d in row), row


@pytest.mark.parametrize("engine", ENGINES)
def test_rows_sorted_positive_and_public_form(engine):
    row_of, public = ENGINES[engine]
    for n in range(1, 7):
        for J in range(1 << (n - 1)):
            for K in range(1 << (n - 1)):
                row = row_of(n, J, K)
                assert_row(row)
                expansion = public(IndexSet.from_mask(n, J), IndexSet.from_mask(n, K))
                assert list(expansion.items()) == [(IndexSet.from_mask(n, L), d) for L, d in row]


def test_pairs_in_canonical_order_yield_single_pair_rows():
    # the kernel on each J's K list in mask order: the nonzero single-pair rows
    for n in range(1, 7):
        ks = range(1 << (n - 1))
        for J in ks:
            assert list(rewrite_rows(n, J, ks)) == [(K, rewrite_row(n, J, K)) for K in ks if rewrite_row(n, J, K)]


def _m(mask):
    """The product of the factorials of the run lengths of the subset with bit mask ``mask``."""
    return math.prod(math.factorial(len(run)) for run in bin(mask)[2:].split("0"))


def test_class_tail_is_the_one_normalization():
    # seeded rows of x_J * x_K = sum of v / denom * x_L on L containing J | K with
    # |L| = |J| + |K|: class_tail gives exactly d = v * m_L / (denom * m_J * m_K),
    # and raises, on the first L in mask order, where d is not a non-negative integer
    rng, kept, refused = random.Random(43), 0, 0
    assert class_tail("test", 5, 0b0001, 0b0010, [], 3) == ()
    while kept < 300 or refused < 300:
        n = rng.randint(2, 9)
        J, K = rng.randrange(1 << (n - 1)), rng.randrange(1 << (n - 1))
        union, extra = J | K, (J & K).bit_count()
        free = [1 << k for k in range(n - 1) if not union >> k & 1]
        if extra > len(free):
            continue
        divisor = (denom := rng.randint(1, 12)) * _m(J) * _m(K)
        row = []
        for L in {union | sum(rng.sample(free, extra)) for _ in range(rng.randint(1, 4))}:
            # half the values make d integral, of either sign or zero
            step = 1 if rng.random() < 0.5 else divisor // math.gcd(divisor, _m(L))
            row.append((L, rng.randint(-3, 6) * step))
        reference = sorted((L, Fraction(v * _m(L), divisor)) for L, v in row)
        wrong = [L for L, d in reference if d.denominator != 1 or d < 0]
        if wrong:
            refused += 1
            value = dict(row)[wrong[0]] * _m(wrong[0])
            shown = value if divisor == 1 else f"{value}/{divisor}"
            with pytest.raises(ConsistencyError, match=f"^test engine gave d = {shown} for "):
                class_tail("test", n, J, K, row, denom)
        else:
            kept += 1
            assert class_tail("test", n, J, K, row, denom) == tuple((L, int(d)) for L, d in reference if d)
