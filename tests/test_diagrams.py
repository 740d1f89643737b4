import math
from fractions import Fraction

import pytest

from helpers import GOLDEN_J, GOLDEN_K, GOLDEN_ROW, plant
from petring import diagrams
from petring.diagrams import expand_all
from petring.errors import ConsistencyError
from petring.intervals import IndexSet, all_index_sets, m_factor
from petring.listings import (
    Move,
    enumerate_diagrams,
    render_ascii,
    structure_constant,
    weight,
)
from petring.ring import rewrite_row, structure_constants_rewrite

L_FULL, L_PRIME, _ = GOLDEN_ROW


class TestEnumerate:
    def test_two_diagrams_for_full_interval(self):
        found = enumerate_diagrams(GOLDEN_J, GOLDEN_K, L_FULL)
        assert len(found) == 2
        assert [P.rows[0].move for P in found] == [Move.LEFT, Move.RIGHT]
        for P in found:
            assert P.L == L_FULL

    def test_single_diagram_with_gap(self):
        found = enumerate_diagrams(GOLDEN_J, GOLDEN_K, L_PRIME)
        assert len(found) == 1
        (P,) = found
        assert [r.move for r in P.rows] == [Move.LEFT, Move.RIGHT]
        # the run containing 6 skips the absent column 4
        assert P.rows[1].run == (5, 8)

    def test_no_repeated_elements_trivial_game(self):
        J = IndexSet.of(6, [1, 2])
        K = IndexSet.of(6, [4])
        found = enumerate_diagrams(J, K, J.union(K))
        assert len(found) == 1
        assert found[0].rows == ()
        assert found[0].weight == 1

    def test_bad_support_returns_empty(self):
        # wrong cardinality
        assert enumerate_diagrams(GOLDEN_J, GOLDEN_K, IndexSet.parse("1,2,3,4,5,6,7", 10)) == []
        # does not contain J | K (3 missing)
        assert enumerate_diagrams(GOLDEN_J, GOLDEN_K, IndexSet.parse("1,2,4,5,6,7,8,9", 10)) == []

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_diagrams(IndexSet.of(4, [1]), IndexSet.of(5, [1]), IndexSet.of(5, [1]))

    def test_marked_column_always_shaded(self):
        for n in range(2, 7):
            for J in all_index_sets(n):
                for K in all_index_sets(n):
                    for L, _ in expand_all(J, K).items():
                        for P in enumerate_diagrams(J, K, L):
                            shading = set(J.union(K).members)
                            for row in P.rows:
                                assert row.element in shading
                                assert row.added_column not in shading
                                shading.add(row.added_column)
                            assert shading == set(L.members)


class TestWeights:
    def test_golden_weights(self):
        found = enumerate_diagrams(GOLDEN_J, GOLDEN_K, L_FULL)
        assert sorted(weight(P) for P in found) == [Fraction(3, 14), Fraction(3, 10)]
        assert weight(found[0]) == Fraction(1, 2) * Fraction(3, 5)
        assert weight(found[1]) == Fraction(1, 2) * Fraction(3, 7)
        (P,) = enumerate_diagrams(GOLDEN_J, GOLDEN_K, L_PRIME)
        assert weight(P) == Fraction(1, 2) * Fraction(2, 5)

    def test_weight_bound(self):
        for n in range(2, 7):
            for J in all_index_sets(n):
                for K in all_index_sets(n):
                    total = Fraction(0)
                    for L in expand_all(J, K):
                        for P in enumerate_diagrams(J, K, L):
                            assert 0 < weight(P) <= 1
                            assert weight(P) == math.prod(row.row_weight for row in P.rows)
                            total += weight(P)
                    assert total <= 1


class TestStructureConstant:
    def test_golden_constants(self):
        assert {L: structure_constant(GOLDEN_J, GOLDEN_K, L) for L in GOLDEN_ROW} == GOLDEN_ROW

    def test_zero_criterion_both_directions(self):
        for n in range(2, 6):
            sets = list(all_index_sets(n))
            for J in sets:
                for K in sets:
                    for L in sets:
                        d = structure_constant(J, K, L)
                        assert (d == 0) == (enumerate_diagrams(J, K, L) == [])

    def test_listing_matches_memoized_game(self):
        # the listing filters the game that expand_all memoizes on final
        # shading L: its weights, summed here and scaled by m_L / (m_J m_K),
        # give every constant, zeros included
        for n in range(1, 7):
            sets = list(all_index_sets(n))
            for J in sets:
                for K in sets:
                    expansion = expand_all(J, K)
                    for L in sets:
                        total = sum((P.weight for P in enumerate_diagrams(J, K, L)), Fraction(0))
                        d = total * m_factor(L) / (m_factor(J) * m_factor(K))
                        assert d == expansion.get(L, 0) == structure_constant(J, K, L), (n, J, K, L)

    def test_symmetry(self):
        for n in range(2, 8):
            for J in all_index_sets(n):
                for K in all_index_sets(n):
                    assert expand_all(J, K) == expand_all(K, J)


class TestExpandAll:
    def test_golden_expansion(self):
        assert expand_all(GOLDEN_J, GOLDEN_K) == GOLDEN_ROW

    def test_overflow_is_empty(self):
        assert expand_all(IndexSet.of(3, [1, 2]), IndexSet.of(3, [1, 2])) == {}

    def test_no_game_rows(self):
        assert expand_all(IndexSet.of(4, [1]), IndexSet.of(4, [2])) == {IndexSet.of(4, [1, 2]): 2}

    def test_agrees_with_rewrite(self):
        for n in range(1, 8):
            for J in all_index_sets(n):
                for K in all_index_sets(n):
                    assert expand_all(J, K) == structure_constants_rewrite(J, K), (n, J, K)


class TestGameMemo:
    def test_one_game_per_union_and_intersection(self):
        # the 4^4 pairs of rank 5 have 3^4 distinct (J | K, J & K)
        for J in all_index_sets(5):
            for K in all_index_sets(5):
                expand_all(J, K)
        info = diagrams._game_sums.cache_info()
        assert (info.misses, info.hits) == (3**4, 4**4 - 3**4)

    @pytest.mark.parametrize("first", [0, 1])
    def test_memo_holds_unscaled_sums(self, first):
        # one game, J | K = {1,2} and J & K empty, but m_J * m_K is 1 for the
        # first pair and 2 for the second: the scaling is per pair, and the
        # memo holds the weight sum 1 on {1,2}, not m_factor({1,2}) = 2 times it
        pairs = [((1,), (2,), 2), ((1, 2), (), 1)]
        for J, K, d in pairs[first:] + pairs[:first]:
            assert expand_all(IndexSet.of(3, J), IndexSet.of(3, K)) == {IndexSet.of(3, [1, 2]): d}
        assert diagrams._game_sums.cache_info().misses == 1
        assert diagrams._game_sums(3, 0b11, 0)[:2] == ({0b11: 1}, 1)

    @pytest.mark.parametrize("first", [0, 1])
    def test_tail_memo_keeps_one_row_per_divisor(self, first):
        # J | K = {1,2,3} and J & K = {2} at rank 5 for both pairs, but m_J * m_K
        # is 2 * 2 = 4 for the first and 1 * 6 = 6 for the second: each pair gets
        # its own row, whichever the memo meets first
        pairs = [(0b0011, 0b0110), (0b0010, 0b0111)]
        for J, K in pairs[first:] + pairs[:first]:
            assert diagrams.diagram_row(5, J, K) == rewrite_row(5, J, K)
        assert sorted(diagrams._game_sums(5, 0b0111, 0b0010)[2]) == [4, 6]
        assert diagrams._game_sums.cache_info().misses == 1

    def test_tail_that_fails_is_not_kept(self, monkeypatch):
        # the game sum of J | K = {1,2}, J & K = {1} at rank 4 made 1/4 in place
        # of 1/3, so d = 1/4 * m_factor({1,2,3}) / (m_factor({1}) * m_factor({1,2}))
        # = 6/8: (J, K) and (K, J) share one memo key, and each raises in its own words
        plant(monkeypatch, diagrams, "_game_sums", (4, 0b011, 0b001),
              lambda entry: (entry[0], 4, {}))
        for J, K, words in [(0b001, 0b011, "J=1, K=1,2"), (0b011, 0b001, "J=1,2, K=1")] * 2:
            with pytest.raises(ConsistencyError, match=f"^diagram engine gave d = 6/8 for {words}, L=1,2,3, "):
                diagrams.diagram_row(4, J, K)
        assert diagrams._game_sums(4, 0b011, 0b001)[2] == {}


class TestRender:
    def test_golden_render_full(self):
        P1, P2 = enumerate_diagrams(GOLDEN_J, GOLDEN_K, L_FULL)
        text = render_ascii(P1)
        lines = text.splitlines()
        assert len(lines) == 4  # header, initial shading, two move rows
        assert lines[0].split("|")[1].split() == ["1", "2", "3", "4", "5", "6", "7", "8"]
        assert lines[2].lstrip().startswith("3")
        assert lines[3].lstrip().startswith("6")
        assert "(L) 1/2" in lines[2]
        assert "(L) 3/5" in lines[3]
        text2 = render_ascii(P2)
        assert "(R) 1/2" in text2 and "(L) 3/7" in text2

    def test_gap_column_absent(self):
        (P,) = enumerate_diagrams(GOLDEN_J, GOLDEN_K, L_PRIME)
        header = render_ascii(P).splitlines()[0]
        assert header.split("|")[1].split() == ["1", "2", "3", "5", "6", "7", "8", "9"]
        assert "(R) 2/5" in render_ascii(P)

    def test_empty_rows_render(self):
        J = IndexSet.of(6, [1])
        K = IndexSet.of(6, [3])
        (P,) = enumerate_diagrams(J, K, J.union(K))
        lines = render_ascii(P).splitlines()
        assert len(lines) == 2  # header plus initial shading only

    def test_deterministic(self):
        P1, _ = enumerate_diagrams(GOLDEN_J, GOLDEN_K, L_FULL)
        assert render_ascii(P1) == render_ascii(P1)
