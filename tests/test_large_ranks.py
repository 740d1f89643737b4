"""Randomized cross-checks at ranks 9 <= n <= 16, beyond the exhaustive
sweep of ``verify`` (n <= 8)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from petring.cli import compute_expansion
from petring.diagrams import expand_all
from petring.intervals import IndexSet
from petring.ring import structure_constants_rewrite


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
    assert compute_expansion(J, K, "linalg") == expansion
    assert compute_expansion(K, J, "all") == expansion
    union, target = J.union(K), len(J) + len(K)
    for L, d in expansion.items():
        assert union.issubset(L) and len(L) == target, (J, K, L)
        assert d > 0
    if target > J.n - 1:
        assert expansion == {}
