"""Randomized cross-checks at ranks 9 <= n <= 16, beyond the exhaustive
sweep of ``verify`` (n <= 8)."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from petring.cli import _expansion_row
from petring.diagrams import diagram_row, expand_all
from petring.intervals import IndexSet
from petring.oracle import linalg_row, structure_constants_linalg
from petring.ring import rewrite_row, structure_constants_rewrite


@st.composite
def pairs(draw):
    """(J, K) with |J| + |K| <= n: products up to one past the top degree."""
    n = draw(st.integers(min_value=9, max_value=16))
    members = st.integers(min_value=1, max_value=n - 1)
    J = draw(st.frozensets(members))
    K = draw(st.frozensets(members, max_size=n - len(J)))
    return IndexSet(n, J), IndexSet(n, K)


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_engines_agree_commute_and_keep_support(pair):
    J, K = pair
    expansion = expand_all(J, K)
    assert structure_constants_rewrite(J, K) == expansion
    assert structure_constants_linalg(J, K) == expansion
    assert _expansion_row(J.n, K.mask, J.mask, "all") == tuple(sorted((L.mask, d) for L, d in expansion.items()))
    union, target = J.union(K), len(J) + len(K)
    for L, d in expansion.items():
        assert union.issubset(L) and len(L) == target, (J, K, L)
        assert d > 0
    if target > J.n - 1:
        assert expansion == {}


@settings(max_examples=100, deadline=None)
@given(pairs())
def test_rows_strictly_increase_in_mask(pair):
    J, K = pair
    rows = [row_of(J.n, J.mask, K.mask) for row_of in (diagram_row, rewrite_row, linalg_row)]
    for row in rows:
        assert all(a < b for (a, _), (b, _) in zip(row, row[1:])), (J, K, row)
        assert all(type(d) is int and d > 0 for _, d in row), (J, K, row)
    assert rows[0] == rows[1] == rows[2]


@st.composite
def triples(draw):
    """(J, K, M) with |J| + |K| + |M| <= n: triple products up to one past
    the top degree."""
    n = draw(st.integers(min_value=9, max_value=16))
    members = st.integers(min_value=1, max_value=n - 1)
    J = draw(st.frozensets(members, max_size=n))
    K = draw(st.frozensets(members, max_size=n - len(J)))
    M = draw(st.frozensets(members, max_size=n - len(J) - len(K)))
    return IndexSet(n, J), IndexSet(n, K), IndexSet(n, M)


def _combine(expansion: dict, product) -> Counter:
    """sum_L c_L * product(L), for an expansion {L: c_L}."""
    out: Counter = Counter()
    for L, c in expansion.items():
        for P, d in product(L).items():
            out[P] += c * d
    return out


@settings(max_examples=100, deadline=None)
@given(triples())
def test_rewrite_associative_with_unit(triple):
    J, K, M = triple
    # sum_L d_JK^L d_LM^P == sum_L d_KM^L d_JL^P
    left = _combine(structure_constants_rewrite(J, K), lambda L: structure_constants_rewrite(L, M))
    right = _combine(structure_constants_rewrite(K, M), lambda L: structure_constants_rewrite(J, L))
    assert left == right
    empty = IndexSet(J.n)
    for S in triple:
        assert structure_constants_rewrite(S, empty) == {S: 1}
        assert structure_constants_rewrite(empty, S) == {S: 1}
