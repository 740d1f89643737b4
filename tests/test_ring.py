import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import GOLDEN_J, GOLDEN_K, GOLDEN_ROW, to_column_one, wrap_run_step
from petring.algebra import (
    CohomologyClass,
    add,
    integral,
    monomial,
    multiply,
    multiply_generator,
    pairing,
    peterson_schubert_class,
    scale,
    to_varpi_basis,
    unit,
    zero,
)
from petring.errors import ConsistencyError, constants
from petring.intervals import IndexSet, all_index_sets, m_factor
from petring.ring import rewrite_row, rewrite_rows, structure_constants_rewrite


def cls(n, terms):
    return CohomologyClass(n, {frozenset(s): Fraction(c) for s, c in terms.items()})


class TestLinearOps:
    def test_unit_and_zero(self):
        assert unit(4).terms == {frozenset(): 1}
        assert scale(unit(4), 0) == zero(4)
        assert monomial(IndexSet.of(4, [1, 3]), 0) == zero(4)

    def test_add_cancels(self):
        w1 = monomial(IndexSet.of(4, [1]))
        assert add(w1, scale(w1, -1)) == zero(4)

    def test_add_disjoint_supports(self):
        got = add(unit(4), scale(monomial(IndexSet.of(4, [1])), 2))
        assert got == cls(4, {(): 1, (1,): 2})

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            add(unit(3), unit(4))
        with pytest.raises(ValueError):
            multiply(unit(3), unit(4))

    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            CohomologyClass(4, {frozenset({1}): Fraction(0)})


class TestMultiplyGenerator:
    def test_run_split(self):
        c = cls(6, {(2, 3): 1})
        got = multiply_generator(c, 2)
        assert got == cls(6, {(1, 2, 3): Fraction(2, 3), (2, 3, 4): Fraction(1, 3)})

    def test_square_splits_evenly(self):
        for n in (4, 5, 7):
            for a in range(2, n - 1):
                got = multiply_generator(cls(n, {(a,): 1}), a)
                assert got == cls(n, {(a - 1, a): Fraction(1, 2), (a, a + 1): Fraction(1, 2)})

    def test_boundary_terms_dropped(self):
        assert multiply_generator(cls(2, {(1,): 1}), 1) == zero(2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            multiply_generator(unit(4), 4)

    def test_outputs_square_free(self):
        c = cls(8, {(1, 2, 3, 5, 6, 7): 1})
        for i in range(1, 8):
            out = multiply_generator(c, i)
            for support in out.terms:
                assert len(support) == 7  # one new distinct index


class TestMultiply:
    def test_unit_is_identity(self):
        c = cls(6, {(1, 3): 2, (2,): Fraction(1, 3)})
        assert multiply(c, unit(6)) == c

    def test_top_degree_overflow(self):
        w1 = monomial(IndexSet.of(2, [1]))
        assert multiply(w1, w1) == zero(2)

    def test_golden_monomial_product(self):
        # the rank-10 showcase product in raw monomial coordinates: basis
        # coefficients m_J * m_K * {3456, 24, 240} after conversion
        got = to_varpi_basis(multiply(monomial(GOLDEN_J), monomial(GOLDEN_K)))
        mjk = m_factor(GOLDEN_J) * m_factor(GOLDEN_K)
        assert mjk == 6
        assert got == {L: d * mjk for L, d in GOLDEN_ROW.items()}

    def test_order_independence_exhaustive(self):
        rng = random.Random(7)
        for n in range(2, 7):
            for J in all_index_sets(n):
                for K in all_index_sets(n):
                    cj, ck = monomial(J), monomial(K)
                    reference = multiply(cj, ck)
                    repeated = sorted(J.members & K.members)
                    shuffled = list(repeated)
                    rng.shuffle(shuffled)
                    for order in (repeated[::-1], shuffled):
                        folded = monomial(J.union(K))
                        for i in order:
                            folded = multiply_generator(folded, i)
                        assert folded == reference

    def test_commutative_associative_random(self):
        rng = random.Random(11)
        for n in (4, 5, 6):
            sets = list(all_index_sets(n))
            for _ in range(20):
                a, b, c = (monomial(rng.choice(sets)) for _ in range(3))
                assert multiply(a, b) == multiply(b, a)
                assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_sums_all_pairs_in_one_pass(self, monkeypatch):
        # multi-term classes whose pair products overlap and partly cancel:
        # the product is the sum of the pairwise products, collected once
        # rather than folded into a growing result with add
        a = cls(6, {(1,): 1, (2,): -1, (3, 4): Fraction(1, 2)})
        b = cls(6, {(1,): 2, (2,): 2, (4,): -3})
        expected = zero(6)
        for s1, r1 in a.terms.items():
            for s2, r2 in b.terms.items():
                pair = multiply(CohomologyClass(6, {s1: r1}), CohomologyClass(6, {s2: r2}))
                expected = add(expected, pair)

        def no_add(*args):
            raise AssertionError("multiply must not fold with add")

        monkeypatch.setattr("petring.algebra.add", no_add)
        assert multiply(a, b) == expected
        assert multiply(a, scale(a, -1)) == scale(multiply(a, a), -1)

    def test_degree_additive(self):
        rng = random.Random(3)
        for n in (5, 6):
            sets = list(all_index_sets(n))
            for _ in range(40):
                a, b = monomial(rng.choice(sets)), monomial(rng.choice(sets))
                product = multiply(a, b)
                if not product.is_zero():
                    assert product.degree() == a.degree() + b.degree()


class TestBasisConversion:
    def test_single_run(self):
        assert to_varpi_basis(cls(4, {(1, 2): 1})) == {IndexSet.of(4, [1, 2]): 2}

    def test_zero(self):
        assert to_varpi_basis(zero(5)) == {}

    def test_basis_class(self):
        J = IndexSet.of(9, [2, 3, 4, 7, 8])
        assert peterson_schubert_class(J).terms == {J.members: Fraction(1, 12)}
        assert peterson_schubert_class(IndexSet(5)) == unit(5)
        assert peterson_schubert_class(IndexSet.of(5, [3])) == monomial(IndexSet.of(5, [3]))


class TestStructureConstants:
    def test_golden_example(self):
        assert structure_constants_rewrite(GOLDEN_J, GOLDEN_K) == GOLDEN_ROW

    def test_unit_factor(self):
        J = IndexSet.of(6, [2, 4, 5])
        assert structure_constants_rewrite(J, IndexSet(6)) == {J: 1}

    def test_disjoint_generators(self):
        assert structure_constants_rewrite(IndexSet.of(4, [1]), IndexSet.of(4, [2])) == {
            IndexSet.of(4, [1, 2]): 2
        }

    def test_support_condition(self):
        for n in range(2, 7):
            for J in all_index_sets(n):
                for K in all_index_sets(n):
                    for L, d in structure_constants_rewrite(J, K).items():
                        assert d > 0
                        assert J.union(K).issubset(L)
                        assert len(L) == len(J) + len(K)


    def test_pairs_agree_with_single_pairs_in_any_order(self):
        n = 5
        pairs = [(J, K) for J in range(16) for K in range(16)]
        rng = random.Random(3)
        for order in (pairs, pairs[::-1], rng.sample(pairs, len(pairs))):
            # the kernel on each run of consecutive pairs with one J
            for J, run in itertools.groupby(order, key=lambda pair: pair[0]):
                rows = dict(rewrite_rows(n, J, ks := [K for _, K in run]))
                for K in ks:
                    expansion = {IndexSet.from_mask(n, L): d for L, d in rows.get(K, ())}
                    assert expansion == structure_constants_rewrite(IndexSet.from_mask(n, J), IndexSet.from_mask(n, K))

    def test_rows_of_one_J_are_the_nonzero_single_pair_rows(self):
        # the table's kernel: for each J and a K list in any order, the (K, row)
        # of rewrite_row for exactly the K with a nonzero row, in list order;
        # a reversed or shuffled list starts on a K whose prefix is not memoized
        rng = random.Random(5)
        for n in range(1, 7):
            ks = list(range(1 << (n - 1)))
            for J in ks:
                for order in (ks, ks[::-1], rng.sample(ks, len(ks)), [K for K in ks if K.bit_count() == 2]):
                    expected = [(K, rewrite_row(n, J, K)) for K in order if rewrite_row(n, J, K)]
                    assert list(rewrite_rows(n, J, order)) == expected, (n, J, order)

    def test_kernel_takes_one_step_per_class(self, monkeypatch):
        import petring.ring as ring

        steps = []
        step = ring._varpi_times_generator
        monkeypatch.setattr(ring, "_varpi_times_generator", lambda terms, i, n: steps.append(i) or step(terms, i, n))
        n = 7
        # the generators of the multiset J | K + J & K, from 1 in increasing order, one step each
        list(rewrite_rows(n, 0b011, [0b110]))
        assert steps == [1, 2, 2, 3]
        # one step per class (J | K, J & K) with |J| + |K| <= n - 1 and J | K nonempty, each from the class
        # without its last generator, and one memo entry per class, the empty one included
        for J in range(64):
            list(rewrite_rows(n, J, range(64)))
        classes = sum(math.comb(6, u) * sum(math.comb(u, m) for m in range(min(u, 6 - u) + 1)) for u in range(7))
        assert len(steps) == classes - 1 == 434
        assert ring._fold.cache_info().currsize == classes == 435
        # every later request reads the memo, in any order
        steps.clear()
        for J in reversed(range(64)):
            list(rewrite_rows(n, J, reversed(range(64))))
        assert steps == []

    def test_inexact_step_raises(self, monkeypatch):
        # a run step whose weights are off by a factor 7 cannot stay integral
        wrap_run_step(monkeypatch, lambda mask, i, n, a, b, den, moves: (a, b, 7 * den, moves))
        with pytest.raises(ConsistencyError, match="not integral"):
            structure_constants_rewrite(IndexSet.of(3, [1]), IndexSet.of(3, [1]))
        with pytest.raises(ConsistencyError, match="not integral"):
            for J in (0, 1):
                list(rewrite_rows(3, J, [1]))
        # the class algebra takes the same step
        g1 = monomial(IndexSet.of(3, [1]))
        with pytest.raises(ConsistencyError, match="not integral"):
            multiply(g1, g1)

    def test_inexact_division_by_m_K_raises(self, monkeypatch):
        # m_J read as 2 for J = {3}, in the one m-factor memo, which the fold of
        # the class ({1,3}, {}) never reads at that mask: its term 1 on L = {1,3}
        # is not a multiple of the divisor m_J * m_K, and the division must say
        # so rather than round
        from petring import intervals

        def doubled(mask, m_factor=intervals.mask_m_factor):
            return 2 if mask == 0b100 else m_factor(mask)

        monkeypatch.setattr(intervals, "mask_m_factor", doubled)
        J, K = IndexSet.of(5, [3]), IndexSet.of(5, [1])
        with pytest.raises(ConsistencyError, match=r"d = 1/2 for J=3, K=1, L=1,3"):
            structure_constants_rewrite(J, K)
        with pytest.raises(ConsistencyError, match=r"d = 1/2 for J=3, K=1, L=1,3"):
            list(rewrite_rows(5, J.mask, [K.mask]))

    def test_integer_check_names_subsets(self):
        J, K, L = IndexSet.of(4, [1]).mask, IndexSet.of(4, [2]).mask, IndexSet.of(4, [1, 2]).mask
        assert constants("rewrite", 4, J, K, [(L, 6)], 3) == ((L, 2),)
        for value, divisor in ((7, 2), (-2, 1)):
            with pytest.raises(ConsistencyError, match="J=1, K=2, L=1,2"):
                constants("rewrite", 4, J, K, [(L, value)], divisor)

    def test_shared_tail_checks_support_degree_and_integrality(self):
        J, K = IndexSet.of(5, [2]).mask, IndexSet.of(5, [2, 3]).mask
        row = constants("rewrite", 5, J, K, [(0b1110, 3), (0b0111, 6)], 3)
        assert row == ((IndexSet.of(5, [1, 2, 3]).mask, 2), (IndexSet.of(5, [2, 3, 4]).mask, 1))
        # a zero constant is dropped
        assert constants("rewrite", 5, J, K, [(0b0111, 6), (0b1110, 0)], 3) == ((IndexSet.of(5, [1, 2, 3]).mask, 2),)
        for engine, mask, value in (("diagram", 0b1011, 3), ("linalg", 0b0110, 3), ("rewrite", 0b1111, 3)):
            # L misses 3 from J | K; L has too few members; L has too many
            with pytest.raises(ConsistencyError, match=rf"{engine} engine gave a term on L=.* for J=2, K=2,3"):
                constants(engine, 5, J, K, [(0b0111, 3), (mask, value)], 3)
        for value in (4, -3):
            with pytest.raises(ConsistencyError, match=r"for J=2, K=2,3, L=1,2,3, expected a non-negative integer"):
                constants("linalg", 5, J, K, [(0b0111, value)], 3)

    def test_shared_tail_refuses_a_repeated_L(self):
        # two terms on one L would break the row's order by mask; a zero term
        # repeats an L all the same
        J, K = IndexSet.of(5, [2]).mask, IndexSet.of(5, [2, 3]).mask
        for row in ([(0b111, 3), (0b111, 3)], [(0b1110, 3), (0b0111, 6), (0b1110, 0)]):
            with pytest.raises(ConsistencyError, match=r"rewrite engine gave two terms on L=.* for J=2, K=2,3"):
                constants("rewrite", 5, J, K, row, 3)
        with pytest.raises(ConsistencyError, match=r"^linalg engine gave two terms on L=1,2,3 for J=2, K=2,3$"):
            constants("linalg", 5, J, K, [(0b111, 3), (0b111, 3)], 3)

    def test_rewrite_term_off_support_refused(self, monkeypatch):
        # a run step that always moves to column 1 leaves the support of
        # J | K, and the rewrite's own tail must refuse the term
        wrap_run_step(monkeypatch, to_column_one)
        J, K = IndexSet.of(5, [3]), IndexSet.of(5, [4])
        with pytest.raises(ConsistencyError, match=r"rewrite engine gave a term on L=1 for J=3, K=4, outside the L"):
            structure_constants_rewrite(J, K)


class TestTransitionTable:
    def test_every_transition_is_a_positive_integer_run_step(self):
        # the memoized step in the basis x_S / m_S is the run rule's step
        # num*m_L / (den*m_S), a positive integer (the positive Monk rule),
        # onto L = S plus one column
        import petring.ring as ring
        from petring.intervals import decompose_mask, run_step

        for n in range(1, 11):
            for i in range(1, n):
                for S in range(1 << (n - 1)):
                    found = ring._transition(n, i, S)
                    _, _, den, moves = run_step(S, i, n)
                    m_S = decompose_mask(S).m_factor
                    expected = tuple(
                        (S | 1 << (t - 1), Fraction(num * decompose_mask(S | 1 << (t - 1)).m_factor, den * m_S))
                        for t, num in moves
                    )
                    assert found == expected
                    for L, c in found:
                        assert type(c) is int and c > 0
                        assert L & S == S and (L & ~S).bit_count() == 1


class TestIntegralAndPairing:
    def test_integral_full_monomial(self):
        assert integral(monomial(IndexSet.full(4))) == 6
        assert integral(peterson_schubert_class(IndexSet.full(7))) == 1
        assert integral(cls(5, {(1, 2): 3})) == 0

    def test_pairing_examples(self):
        J12 = IndexSet.of(4, [1, 2])
        assert pairing(J12, monomial(J12)) == 2
        assert pairing(IndexSet.of(4, [1, 3]), monomial(IndexSet.of(4, [2, 3]))) == 0
        assert pairing(J12, peterson_schubert_class(J12)) == 1

    def test_duality_exhaustive(self):
        for n in range(2, 8):
            for J in all_index_sets(n):
                for K in all_index_sets(n):
                    if len(J) == len(K):
                        expected = 1 if J == K else 0
                        assert pairing(J, peterson_schubert_class(K)) == expected
