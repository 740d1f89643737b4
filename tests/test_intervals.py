import math

import pytest
from hypothesis import given

from helpers import index_sets
from petring.intervals import (
    IndexSet,
    all_index_sets,
    decompose,
    factor_ranks,
    format_mask,
    hessenberg_function,
    m_factor,
    run_step,
)


class TestIndexSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            IndexSet(3, frozenset({3}))
        with pytest.raises(ValueError):
            IndexSet(0)
        with pytest.raises(ValueError):
            IndexSet(33)
        assert IndexSet(1).members == frozenset()

    def test_bool_refused(self):
        # True == 1 as an int, but a flag is neither a rank nor a member
        for members in ([True, 3], [False]):
            with pytest.raises(ValueError, match="member"):
                IndexSet.of(5, members)
        with pytest.raises(ValueError, match="ambient rank"):
            IndexSet(True)

    def test_parse_format_round_trip(self):
        assert IndexSet.parse("-", 4) == IndexSet(4)
        assert IndexSet.parse("1,3", 4).as_tuple() == (1, 3)
        assert IndexSet.parse("1,3", 4).format() == "1,3"
        assert IndexSet.parse(" 1 , 3 ", 4) == IndexSet.parse("1,3", 4)  # spaces around a cell
        assert IndexSet(4).format() == "-"
        for n in range(1, 9):  # the text of a mask, as the subset of each rank below 9 gives it
            for mask in range(1 << (n - 1)):
                assert format_mask(mask) == IndexSet.from_mask(n, mask).format()
                assert IndexSet.parse(format_mask(mask), n).mask == mask
        with pytest.raises(ValueError):
            IndexSet.parse("3,1", 4)
        with pytest.raises(ValueError):
            IndexSet.parse("1,1", 4)
        with pytest.raises(ValueError):
            IndexSet.parse("x", 4)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IndexSet.of(4, [1]).union(IndexSet.of(5, [1]))
        with pytest.raises(ValueError):
            IndexSet.of(4, [1]).intersection(IndexSet.of(5, [1]))

    def test_intersection(self):
        assert IndexSet.of(6, [1, 2, 4]) & IndexSet.of(6, [2, 4, 5]) == IndexSet.of(6, [2, 4])
        assert IndexSet.of(6, [1]).intersection(IndexSet.of(6, [5])) == IndexSet(6)

    def test_canonical_order(self):
        masks = [J.mask for J in all_index_sets(4)]
        assert masks == list(range(8))


class TestValueTypes:
    """IndexSet, Monomial and CohomologyClass: validated, immutable values
    that compare and hash by their fields."""

    def test_index_set_constructors_agree(self):
        built = [IndexSet.of(6, [4, 1, 2]), IndexSet.from_mask(6, 0b1011), IndexSet.parse("1,2,4", 6),
                 IndexSet(6, frozenset({1, 2, 4})), IndexSet(6, [1, 2, 4])]
        assert all(J == built[0] for J in built)
        assert {hash(J) for J in built} == {hash((6, frozenset({1, 2, 4})))}
        assert {J.mask for J in built} == {0b1011}
        assert len(set(built)) == 1
        assert IndexSet.of(6, [1, 2, 4]) != IndexSet.of(7, [1, 2, 4])
        assert IndexSet.of(6, [1, 2, 4]) != (6, frozenset({1, 2, 4}))

    def test_values_copy_and_show_their_fields(self):
        import copy
        import pickle

        from petring.algebra import CohomologyClass
        from petring.relations import Monomial

        for value in (IndexSet.of(5, [1, 3]), Monomial(4, (0, 2, 1)), CohomologyClass(3, {frozenset({1}): 2})):
            assert pickle.loads(pickle.dumps(value)) == value
            assert copy.deepcopy(value) == value
        assert repr(IndexSet.of(4, [2])) == "IndexSet(n=4, members=frozenset({2}))"
        assert repr(Monomial(3, (1, 0))) == "Monomial(n=3, exponents=(1, 0))"

    def test_fields_refuse_assignment(self):
        from petring.algebra import CohomologyClass
        from petring.relations import Monomial

        values = [(IndexSet.of(5, [1]), "members"), (IndexSet.of(5, [1]), "mask"),
                  (Monomial(4, (0, 2, 1)), "exponents"), (CohomologyClass(3), "terms")]
        for value, name in values:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
            with pytest.raises(AttributeError):
                value.extra = 1
        assert IndexSet.of(5, [1]).mask == 0b1

    @pytest.mark.parametrize("build, message", [
        (lambda: IndexSet(0), "ambient rank must be an integer in [1, 32], got 0"),
        (lambda: IndexSet(33), "ambient rank must be an integer in [1, 32], got 33"),
        (lambda: IndexSet(4.0), "ambient rank must be an integer in [1, 32], got 4.0"),
        (lambda: IndexSet(3, frozenset({3})), "member 3 outside {1, ..., 2}"),
        (lambda: IndexSet.of(4, [0]), "member 0 outside {1, ..., 3}"),
        (lambda: IndexSet.from_mask(4, 0b1000), "member 4 outside {1, ..., 3}"),
        (lambda: IndexSet.parse("x", 4), "cannot parse subset 'x'"),
        (lambda: IndexSet.parse("1_0", 12), "cannot parse subset '1_0'"),
        (lambda: IndexSet.parse("\u0663", 12), "cannot parse subset '\u0663'"),
        (lambda: IndexSet.parse("1,+3", 4), "cannot parse subset '1,+3'"),
        (lambda: IndexSet.parse("1,,3", 4), "cannot parse subset '1,,3'"),
        (lambda: IndexSet.parse("3,1", 4), "subset '3,1' must list distinct integers in ascending order"),
    ])
    def test_index_set_errors(self, build, message):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message

    def test_monomial_and_class_errors(self):
        from petring.algebra import CohomologyClass
        from petring.relations import Monomial

        for build, message in [
            (lambda: Monomial(4, (1, 2)), "expected 3 exponents, got 2"),
            (lambda: Monomial(3, (1, -1)), "negative exponent"),
            (lambda: Monomial.from_multiset(3, [3]), "generator index 3 out of range for rank 3"),
            (lambda: CohomologyClass(4, {frozenset({4}): 1}), "support [4] invalid for rank 4"),
            (lambda: CohomologyClass(4, {frozenset({1}): 0}), "zero coefficients must be pruned"),
        ]:
            with pytest.raises(ValueError) as caught:
                build()
            assert str(caught.value) == message


class TestDecompose:
    def test_three_runs(self):
        dec = decompose(IndexSet.of(10, [1, 2, 4, 5, 6, 9]))
        assert dec.runs == ((1, 2), (4, 6), (9, 9))

    def test_empty(self):
        assert decompose(IndexSet(5)).runs == ()

    def test_two_runs(self):
        assert decompose(IndexSet.of(9, [2, 3, 4, 7, 8])).runs == ((2, 4), (7, 8))

    @given(index_sets(10))
    def test_runs_reconstruct(self, J):
        dec = decompose(J)
        rebuilt = set()
        for lo, hi in dec.runs:
            rebuilt.update(range(lo, hi + 1))
        assert rebuilt == set(J.members)
        assert sum(hi - lo + 1 for lo, hi in dec.runs) == len(J)
        # runs ascending and non-adjacent
        for (_, h1), (l2, _) in zip(dec.runs, dec.runs[1:]):
            assert h1 + 1 < l2


class TestRunStep:
    def test_matches_walk(self):
        # reference: walk outward from i through the members, one at a time
        for n in range(1, 9):
            for J in all_index_sets(n):
                for i in range(1, n):
                    if i not in J:
                        assert run_step(J.mask, i, n) == (i, i - 1, 1, ((i, 1),))
                        continue
                    a = b = i
                    while a - 1 in J:
                        a -= 1
                    while b + 1 in J:
                        b += 1
                    moves = tuple(
                        (t, num) for t, num in ((a - 1, b - i + 1), (b + 1, i - a + 1)) if 1 <= t <= n - 1
                    )
                    assert run_step(J.mask, i, n) == (a, b, b - a + 2, moves)

    def test_mask_round_trip(self):
        for J in all_index_sets(7):
            assert IndexSet.from_mask(7, J.mask) == J
        with pytest.raises(ValueError):
            IndexSet.from_mask(4, 0b1000)


class TestMFactor:
    @pytest.mark.parametrize(
        "n,members,expected",
        [(9, [2, 3, 4, 7, 8], 12), (5, [], 1), (10, [1, 3, 5, 6, 7], 6)],
    )
    def test_examples(self, n, members, expected):
        assert m_factor(IndexSet.of(n, members)) == expected

    @given(index_sets(10))
    def test_divides_full_factorial(self, J):
        assert math.factorial(len(J)) % m_factor(J) == 0


class TestHessenbergFunction:
    def test_example(self):
        J = IndexSet.of(10, [1, 2, 4, 5, 6, 9])
        assert hessenberg_function(J) == [2, 3, 3, 5, 6, 7, 7, 8, 10, 10]

    def test_identity_and_staircase(self):
        assert hessenberg_function(IndexSet(3)) == [1, 2, 3]
        assert hessenberg_function(IndexSet.of(4, [1, 2, 3])) == [2, 3, 4, 4]

    @given(index_sets(10))
    def test_axioms(self, J):
        h = hessenberg_function(J)
        assert all(h[i] <= h[i + 1] for i in range(len(h) - 1))
        assert all(h[i - 1] >= i for i in range(1, J.n + 1))
        assert h[-1] == J.n


class TestFactorRanks:
    def test_examples(self):
        assert factor_ranks(IndexSet.of(10, [1, 2, 4, 5, 6, 9])) == [3, 4, 2]
        assert factor_ranks(IndexSet(6)) == []
        assert factor_ranks(IndexSet.of(5, [2, 3])) == [3]
