"""The row contract of the checked tail, ``errors.constants``: each engine
gives an expansion as (L mask, d) pairs, strictly increasing in mask, with
positive int constants, and the public functions return exactly that row
as {L: d}."""

import pytest

from petring.diagrams import diagram_row, expand_all
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
