from itertools import permutations as all_perms

import pytest
from hypothesis import given, strategies as st

from petring.intervals import IndexSet, all_index_sets, decompose
from petring.permutations import (
    bruhat_leq,
    compose,
    format_one_line,
    identity,
    length,
    longest_wj,
    peterson_fixed_points,
    simple_transposition,
    subword_vj,
)


@st.composite
def index_sets(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    if n == 1:
        return IndexSet(n)
    return IndexSet(n, draw(st.frozensets(st.integers(1, n - 1))))


def word_product(n, word):
    """Independent oracle: multiply out a word of simple transpositions."""
    w = identity(n)
    for i in word:
        w = compose(w, simple_transposition(n, i))
    return w


class TestLongestWj:
    def test_block_reversal_example(self):
        J = IndexSet.of(10, [1, 2, 4, 5, 6, 9])
        assert longest_wj(J) == (3, 2, 1, 7, 6, 5, 4, 8, 10, 9)

    def test_empty(self):
        assert longest_wj(IndexSet(5)) == identity(5)

    def test_against_word_product(self):
        # the reduced word (s_1)(s_4 s_5 s_4)(s_7) multiplies out to w_J
        expected = word_product(8, [1, 4, 5, 4, 7])
        assert expected == (2, 1, 3, 6, 5, 4, 8, 7)
        assert longest_wj(IndexSet.of(8, [1, 4, 5, 7])) == expected

    @given(index_sets())
    def test_involution(self, J):
        w = longest_wj(J)
        assert compose(w, w) == identity(J.n)

    @given(index_sets())
    def test_length_formula(self, J):
        runs = decompose(J).runs
        expected = sum((hi - lo + 1) * (hi - lo + 2) // 2 for lo, hi in runs)
        assert length(longest_wj(J)) == expected


class TestSubwordVj:
    def test_examples(self):
        assert subword_vj(IndexSet.of(4, [1, 3])) == (2, 1, 4, 3)
        assert subword_vj(IndexSet.of(4, [1, 2])) == (2, 3, 1, 4)
        assert subword_vj(IndexSet(4)) == identity(4)

    @given(index_sets())
    def test_word_is_reduced(self, J):
        assert length(subword_vj(J)) == len(J)


class TestLength:
    def test_examples(self):
        assert length((3, 2, 1)) == 3
        assert length(identity(6)) == 0
        assert length((3, 2, 1, 7, 6, 5, 4, 8, 10, 9)) == 10


class TestBruhat:
    def test_reflexive(self):
        w = (2, 1, 4, 3)
        assert bruhat_leq(w, w)

    def test_young_subgroup_examples(self):
        u = longest_wj(IndexSet.of(8, [1, 4, 5, 7]))
        v = longest_wj(IndexSet.of(8, [1, 2, 4, 5, 6, 7]))
        assert bruhat_leq(u, v)
        assert not bruhat_leq(simple_transposition(3, 2), longest_wj(IndexSet.of(3, [1])))

    def test_mismatched_degrees(self):
        with pytest.raises(ValueError):
            bruhat_leq((1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match="mismatched degrees"):
            compose((1, 2), (1, 2, 3))

    def test_simple_transposition_range(self):
        assert simple_transposition(4, 3) == (1, 2, 4, 3)
        for i in (0, 4):
            with pytest.raises(ValueError, match=f"s_{i} undefined in S_4"):
                simple_transposition(4, i)

    def test_implies_length(self):
        for u in all_perms(range(1, 5)):
            for v in all_perms(range(1, 5)):
                if bruhat_leq(u, v):
                    assert length(u) <= length(v)

    def test_against_subword_brute_force(self):
        # reduced-word subword closure, validated for n <= 4
        for n in (2, 3, 4):
            perms = [tuple(p) for p in all_perms(range(1, n + 1))]
            for v in perms:
                below = brute_force_lower_interval(n, v)
                for u in perms:
                    assert bruhat_leq(u, v) == (u in below), (u, v)


def reduced_word(n, v):
    word = []
    w = list(v)
    while True:
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                word.append(i + 1)
                break
        else:
            break
    return list(reversed(word))


def brute_force_lower_interval(n, v):
    """All products of subwords of one reduced word of v."""
    word = reduced_word(n, v)
    below = set()
    for mask in range(1 << len(word)):
        sub = [word[i] for i in range(len(word)) if mask >> i & 1]
        below.add(tuple(
            compose_word(n, sub)
        ))
    return below


def compose_word(n, word):
    w = identity(n)
    for i in word:
        w = compose(w, simple_transposition(n, i))
    return w


class TestFixedPoints:
    def test_small_ranks(self):
        assert peterson_fixed_points(2) == [(1, 2), (2, 1)]
        assert peterson_fixed_points(3) == [
            (1, 2, 3),
            (2, 1, 3),
            (1, 3, 2),
            (3, 2, 1),
        ]

    def test_cardinality_and_distinctness(self):
        for n in range(1, 7):
            pts = peterson_fixed_points(n)
            assert len(pts) == 2 ** (n - 1)
            assert len(set(pts)) == len(pts)

    def test_matches_subset_order(self):
        assert peterson_fixed_points(4) == [longest_wj(J) for J in all_index_sets(4)]


def test_format_one_line():
    assert format_one_line((3, 1, 2)) == "[3,1,2]"
