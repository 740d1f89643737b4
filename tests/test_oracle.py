import ast
import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import empty, empty_memos, plant, step_tripled
from petring import intervals, listings, oracle, relations
from petring.errors import ConsistencyError, PresentationError
from petring.intervals import IndexSet, all_index_sets
from petring.oracle import presentation_failures, quotient_dimension, structure_constants_linalg
from petring.relations import Monomial, normal_form, relation_rows
from petring.ring import rewrite_row, structure_constants_rewrite


class TestMonomial:
    def test_from_multiset(self):
        m = Monomial.from_multiset(4, {2: 2})
        assert m.exponents == (0, 2, 0)
        assert m.degree == 2
        assert not m.is_square_free
        assert Monomial.from_multiset(4, [1, 3]).is_square_free

    def test_validation(self):
        with pytest.raises(ValueError):
            Monomial(4, (1, 2))
        with pytest.raises(ValueError):
            Monomial.from_multiset(4, {4: 1})

    @pytest.mark.parametrize("build", [
        lambda: Monomial(3, (0.5, 1)),
        lambda: Monomial(3, (1.0, 1)),
        lambda: Monomial(3, ("1", 1)),
        lambda: Monomial(3, (True, 2)),
        lambda: Monomial(3, (0, False)),
        lambda: Monomial.from_multiset(3, [True, True]),
        lambda: Monomial.from_multiset(3, [1.0]),
        lambda: Monomial.from_multiset(3, {True: 2}),
        lambda: Monomial.from_multiset(3, {1: True}),
        lambda: Monomial.from_multiset(3, {2: 0.5}),
    ], ids=["half", "float", "str", "bool", "false", "bool-list", "float-index", "bool-index",
            "bool-multiplicity", "half-multiplicity"])
    def test_refuses_non_int_exponents(self, build):
        # as IndexSet refuses a bool member: a float or a bool is not an exponent, and
        # normal_form must not read 0.5 as 1 or True as g_1
        with pytest.raises(ValueError, match="must be ints"):
            build()

    def test_int_exponents_and_multiplicities_accepted(self):
        assert Monomial(3, (0, 2)).exponents == (0, 2)
        assert Monomial.from_multiset(3, [1, 1]).exponents == (2, 0)
        assert Monomial.from_multiset(3, {2: 0}).exponents == (0, 0)
        assert normal_form(Monomial(3, (1, 1))) == {IndexSet.of(3, [1, 2]): 1}


class TestRelationRows:
    def test_rank_two_boundary(self):
        matrix = relation_rows(2, 2)
        assert len(matrix.rows) == 1
        # the only relation is 2 * (generator 1 squared)
        assert matrix.rows[0] == {matrix.columns.index((2,)): 2}

    def test_rank_four_degree_two(self):
        matrix = relation_rows(4, 2)
        assert len(matrix.rows) == 3
        cols = matrix.columns
        i2_row = matrix.rows[1]
        assert i2_row == {
            cols.index((0, 2, 0)): 2,
            cols.index((1, 1, 0)): -1,
            cols.index((0, 1, 1)): -1,
        }

    def test_row_count(self):
        for n in (3, 4, 5):
            for d in (2, 3, 4):
                matrix = relation_rows(n, d)
                num_lower = math.comb(d - 2 + n - 2, n - 2)
                assert len(matrix.rows) == (n - 1) * num_lower

    def test_no_relations_below_degree_two(self):
        for d in (0, 1):
            with pytest.raises(ValueError, match="degree >= 2"):
                relation_rows(4, d)

    def test_column_blocks(self):
        matrix = relation_rows(5, 3)
        k = sum(1 for m in matrix.columns if any(e > 1 for e in m))
        assert all(any(e > 1 for e in m) for m in matrix.columns[:k])
        assert all(all(e <= 1 for e in m) for m in matrix.columns[k:])


class TestNormalForm:
    def test_square_splits_evenly(self):
        nf = normal_form(Monomial.from_multiset(4, {2: 2}))
        assert nf == {
            IndexSet.of(4, [1, 2]): Fraction(1, 2),
            IndexSet.of(4, [2, 3]): Fraction(1, 2),
        }

    def test_square_free_fixed(self):
        m = Monomial.from_multiset(6, [1, 3, 4])
        assert normal_form(m) == {IndexSet.of(6, [1, 3, 4]): 1}

    def test_rank_two_square_vanishes(self):
        assert normal_form(Monomial.from_multiset(2, {1: 2})) == {}

    def test_matches_full_elimination(self):
        # every monomial with n <= 6 and d <= n+1, exponents >= 3 included,
        # against reduction by the echelon form of the whole degree-d matrix
        for n in range(1, 7):
            for d in range(0, n + 2):
                cols, pivots = relations._reduced_pivots(n, d)
                col_index = {mono: idx for idx, mono in enumerate(cols)}
                for exps in oracle._monomial_exponents(n, d):
                    vec, denom = oracle._reduce_row({col_index[exps]: 1}, pivots)
                    expected = {
                        IndexSet.of(n, (i + 1 for i, e in enumerate(cols[c]) if e)): Fraction(v, denom)
                        for c, v in vec.items()
                    }
                    assert all(max(cols[c], default=0) <= 1 for c in vec), (n, exps)
                    assert normal_form(Monomial(n, exps)) == expected, (n, exps)

    def test_builds_no_full_matrix(self):
        J = IndexSet.parse("1,3,5,6,7", 10)
        K = IndexSet.parse("3,6,8", 10)
        # hits, misses and currsize all unchanged: no full matrix was
        # looked up, let alone eliminated
        before = relations._reduced_pivots.cache_info()
        structure_constants_linalg(J, K)
        assert relations._reduced_pivots.cache_info() == before


def _combine_reference(parts):
    """The sum of v * terms / den over the (v, (terms, den)) parts, lcm first: each part scaled to the lcm of their
    denominators, then summed in order; cancelled terms kept as 0.  Returns (terms, that lcm)."""
    scale, out = math.lcm(*[den for _, (_, den) in parts]), {}
    for v, (row, den) in parts:
        for T, w in row.items():
            out[T] = out.get(T, 0) + v * (scale // den) * w
    return out, scale


def _times_reference(n, i, terms, denom):
    """g_i times terms / denom as the lcm-first sum of one part per term, a table step or x_{S+i}; zeros dropped,
    then the content of the sum over denom times that lcm divided out."""
    bit = 1 << (i - 1)
    out, scale = _combine_reference([(v, oracle._step(n, i, S) if S & bit else ({S | bit: 1}, 1))
                                     for S, v in terms.items()])
    out = {T: w for T, w in out.items() if w}
    g = math.gcd(denom * scale, *out.values())
    return {T: w // g for T, w in out.items()}, denom * scale // g


class TestTable:
    def test_times_is_the_sum_of_its_parts(self):
        # the one-pass product by g_i gives the sum of parts exactly: the same terms in the same order and
        # the same denominator, for every one-term input at n <= 6 and for seeded random combinations, whose
        # table steps have mixed denominators and may cancel
        cases = [(n, i, {S: v}, denom) for n in range(1, 7) for i in range(1, n) for S in range(1 << (n - 1))
                 for v, denom in [(1, 1), (-3, 2), (4, 6)]]
        rng = random.Random(41)
        for _ in range(400):
            n = rng.randrange(3, 8)
            size = rng.randrange(n - 1)
            masks = [S for S in range(1 << (n - 1)) if S.bit_count() == size]
            chosen = rng.sample(masks, min(len(masks), rng.randrange(1, 7)))
            terms = {S: rng.choice([-6, -3, -1, 1, 2, 3, 5]) for S in chosen}
            cases.append((n, rng.randrange(1, n), terms, rng.choice([1, 2, 3, 6, 10])))
        assert sum(len({oracle._step(n, i, S)[1] for S in terms if S >> (i - 1) & 1}) > 1
                   for n, i, terms, _ in cases) > 50
        for n, i, terms, denom in cases:
            got, want = oracle._times(n, i, terms, denom), _times_reference(n, i, terms, denom)
            assert (list(got[0].items()), got[1]) == (list(want[0].items()), want[1]), (n, i, terms, denom)
        # and _combine, the one-pass sum under _times and quotient_dimension, is the lcm-first sum: the same terms,
        # cancelled ones kept as 0, in the same order over the same denominator, for seeded random parts with mixed
        # denominators, an empty sum, and parts over 2 and 4 in which every term cancels
        sums = [[], [(1, ({1: 1, 2: 3}, 2)), (-1, ({1: 2}, 4)), (-3, ({2: 1}, 2))]]
        for _ in range(400):
            parts = ((rng.choice([-2, -1, 1, 2]), {S: rng.choice([-2, -1, 1, 2]) for S in rng.sample(range(4), 2)},
                      rng.choice([1, 2, 3, 4, 6])) for _ in range(rng.randrange(1, 5)))
            sums.append([(v, (terms, den)) for v, terms, den in parts])
        assert sum(len({den for _, (_, den) in parts}) > 2 for parts in sums) > 100
        assert sum(0 in _combine_reference(parts)[0].values() for parts in sums) > 20
        assert _combine_reference(sums[1]) == ({1: 0, 2: 0}, 4)
        for parts in sums:
            got, want = oracle._combine(iter(parts)), _combine_reference(parts)
            assert (list(got[0].items()), got[1]) == (list(want[0].items()), want[1]), parts

    def test_entries_match_full_elimination(self):
        # every entry NF(g_i * x_S) for n <= 7, against reduction by the
        # echelon form of the whole degree-(|S|+1) matrix
        for n in range(2, 8):
            for S in range(1 << (n - 1)):
                cols, pivots = relations._reduced_pivots(n, S.bit_count() + 1)
                col_index = {mono: idx for idx, mono in enumerate(cols)}
                for i in (k + 1 for k in range(n - 1) if S >> k & 1):
                    product = oracle._bump(tuple(S >> k & 1 for k in range(n - 1)), i, 1)
                    vec, denom = oracle._reduce_row({col_index[product]: 1}, pivots)
                    expected = {sum(e << k for k, e in enumerate(cols[c])): Fraction(v, denom) for c, v in vec.items()}
                    row, d = oracle._step(n, i, S)
                    assert {L: Fraction(v, d) for L, v in row.items()} == expected, (n, i, S)

    def test_entries_in_lowest_terms(self):
        # _normal_form's memo relies on one canonical (row, denominator) form
        for n in range(2, 9):
            for S in range(1 << (n - 1)):
                for i in (k + 1 for k in range(n - 1) if S >> k & 1):
                    row, denom = oracle._step(n, i, S)
                    assert denom > 0 and math.gcd(denom, *row.values()) == 1, (n, i, S)

    def test_transposed_pairs_share_one_reduction(self):
        J, K = IndexSet.of(8, [1, 2, 3]), IndexSet.of(8, [2, 3, 5])
        expansion = structure_constants_linalg(J, K)
        first = oracle._normal_form.cache_info()
        # three forms on the route: g_1 g_2^2 g_3^2 g_5, then one g_3 less,
        # then one g_2 less, which is square-free
        assert (first.misses, first.hits) == (3, 0)
        assert structure_constants_linalg(K, J) == expansion
        info = oracle._normal_form.cache_info()
        # the transpose adds no miss and one hit
        assert (info.misses, info.hits) == (first.misses, first.hits + 1)
        # two table entries: g_2 on x_{1,2,3,5}, then g_3 on the one term
        # that the first step leaves
        assert oracle._step.cache_info().currsize == 2

    def test_dropped_relation_term_raises(self, monkeypatch):
        # without its 2*g_j^2 term a relation row cannot eliminate that
        # monomial, so building the entry must refuse
        own_row = oracle._own_row
        monkeypatch.setattr(oracle, "_own_row", lambda mono: {t: v for t, v in own_row(mono).items() if t != mono})
        with pytest.raises(PresentationError, match="neither square-free nor eliminated"):
            oracle._step(4, 2, 0b010)
        with pytest.raises(PresentationError):
            structure_constants_linalg(IndexSet.of(4, [2]), IndexSet.of(4, [2]))

    def test_non_integral_constant_raises_in_the_engine(self, monkeypatch):
        # NF(g_2 * x_{2}) at rank 4 with a tripled denominator gives
        # d = 2/6 on L = {1,2}: linalg itself must refuse it
        plant(monkeypatch, oracle, "_step", (4, 2, 0b010), lambda entry: (entry[0], 3 * entry[1]))
        with pytest.raises(ConsistencyError, match=r"linalg engine gave d = 2/6 for J=2, K=2, L=1,2,"):
            structure_constants_linalg(IndexSet.of(4, [2]), IndexSet.of(4, [2]))

    def test_constants_are_integers(self):
        J, K = IndexSet.parse("1,3,5,6,7", 10), IndexSet.parse("3,6,8", 10)
        assert all(type(d) is int for d in structure_constants_linalg(J, K).values())

    def test_independent_of_the_run_rule(self, monkeypatch):
        # linalg is a cross-check only while it never uses the run rule: not
        # by name, and not at run time through a callee such as the m-factors;
        # nor does its reference, the relation matrix of `relations`
        def named(module):
            """The names that ``module`` imports, and those it reads as names or attributes."""
            tree = ast.parse(inspect.getsource(module))
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    imported.add((node.module or "").split(".")[-1])
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Import):
                    imported.update(part for alias in node.names for part in alias.name.split("."))
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            return imported, names

        for module in (oracle, relations):
            imported, names = named(module)
            assert not imported & {"ring", "diagrams", "algebra", "listings", "run_step"}, module
            assert "run_step" not in names, module
        # the checked tail, errors.class_tail, applies the m-factors: neither linalg
        # nor the diagram listings read one
        assert not set().union(*named(oracle)) & {"decompose_mask", "mask_m_factor", "m_factor"}
        assert not set().union(*named(listings)) & {"decompose_mask", "mask_m_factor", "m_factor"}

        def refused(*args):
            raise AssertionError("linalg reached the run rule")

        monkeypatch.setattr(intervals, "run_step", refused)
        intervals.mask_m_factor.cache_clear()
        for n in range(1, 7):
            # ring binds its own run_step, so the rewrite still gives the reference rows
            for J, K in itertools.product(range(1 << (n - 1)), repeat=2):
                assert oracle.linalg_row(n, J, K) == rewrite_row(n, J, K), (n, J, K)
            assert not any(presentation_failures(n, size) for size in range(n))


class TestElimination:
    def test_own_row(self):
        # the own row of a non-square-free monomial is a relation row whose
        # 2*g_j^2 term is that monomial, j its first generator squared
        for n in range(2, 6):
            for d in range(2, n + 2):
                matrix = relation_rows(n, d)
                rows = [{matrix.columns[c]: v for c, v in row.items()} for row in matrix.rows]
                for mono in matrix.columns:
                    if max(mono) <= 1:
                        continue
                    j = next(i for i, e in enumerate(mono, start=1) if e > 1)
                    own = oracle._own_row(mono)
                    assert own[mono] == 2 and own in rows, (n, mono)
                    # the other terms trade one g_j for g_{j-1} or g_{j+1}
                    less = oracle._bump(mono, j, -1)
                    assert set(own) - {mono} == {
                        oracle._bump(less, k, 1) for k in (j - 1, j + 1) if 1 <= k <= n - 1
                    }, (n, mono)

    def test_rank_matches_generation_order(self):
        # same rank as every relation row in generation order with no exit,
        # and the pivots reduce every relation row to zero
        for n in range(2, 8):
            for d in range(2, n + 2):
                matrix = relation_rows(n, d)
                plain = oracle._echelon(matrix.rows, len(matrix.columns) + 1)
                cols, pivots = relations._reduced_pivots(n, d)
                assert cols == matrix.columns
                assert len(pivots) == len(plain), (n, d)
                for row in matrix.rows:
                    reduced, _ = oracle._reduce_row(dict(row), pivots)
                    assert reduced == {}, (n, d, row)

    def test_echelon_stops_only_at_full_rank(self):
        rows = iter([{0: 1, 1: 1}, {1: 2}, {0: 5}])
        assert sorted(oracle._echelon(rows, 2)) == [0, 1]
        assert next(rows) == {0: 5}  # never read: both columns had a pivot
        # rank 2 of 3 columns: the row after the dependent one still pivots,
        # and the exit never fires, so every row is read
        rows = iter([{0: 1, 2: 1}, {0: 3, 2: 3}, {1: 1, 2: -1}])
        pivots = oracle._echelon(rows, 3)
        assert sorted(pivots) == [0, 1]
        assert pivots[1] == {1: 1, 2: -1}
        assert next(rows, None) is None

    def test_reduction_stops_at_the_first_unpivoted_column(self):
        # clearing column 0 brings in column 3, above the unpivoted column 1:
        # the reduction stops there and leaves column 3, pivot and all
        pivots = {0: {0: 2, 3: 1}, 3: {3: 1}}
        assert oracle._reduce_row({0: 1, 1: 1}, pivots) == ({1: 2, 3: -1}, 2)
        # a row whose smallest column has no pivot comes back as it was, and
        # one reduced to zero over 1, not over the pivot's lead 2
        assert oracle._reduce_row({1: 2, 3: 4}, pivots) == ({1: 2, 3: 4}, 1)
        assert oracle._reduce_row({0: 3}, {0: {0: 2}}) == ({}, 1)

    def _reduced_rows(self, monkeypatch, n, d):
        calls = []
        reduce_row = oracle._reduce_row

        def counting(row, pivots):
            calls.append(None)
            return reduce_row(row, pivots)

        monkeypatch.setattr(oracle, "_reduce_row", counting)
        empty(relations._reduced_pivots)(n, d)
        return len(calls)

    def test_one_row_per_column_above_top_degree(self, monkeypatch):
        # d >= n: every column is non-square-free and its own row gives it
        # a pivot, so exactly one row per column is reduced
        assert len(relation_rows(7, 8).columns) == 1287
        assert self._reduced_rows(monkeypatch, 7, 8) == 1287

    def test_every_row_reduced_below_top_degree(self, monkeypatch):
        # d <= n-1: the square-free columns never get a pivot, so every
        # relation row is reduced, once, and their independence is checked
        for n, d in ((7, 5), (7, 6), (6, 4)):
            rows = len(relation_rows(n, d).rows)
            assert self._reduced_rows(monkeypatch, n, d) == rows, (n, d)


class TestQuotientDimension:
    def test_examples(self):
        assert quotient_dimension(4, 2) == 3
        with pytest.raises(ValueError, match="non-negative"):
            quotient_dimension(4, -1)
        assert quotient_dimension(6, 0) == 1
        assert quotient_dimension(3, 3) == 0

    def test_binomials(self):
        for n in range(1, 9):
            for d in range(0, n + 2):
                expected = math.comb(n - 1, d) if d <= n - 1 else 0
                assert quotient_dimension(n, d) == expected, (n, d)

    def test_total_dimension(self):
        for n in range(2, 7):
            assert sum(quotient_dimension(n, d) for d in range(n)) == 2 ** (n - 1)

    def test_matches_full_elimination(self):
        for n in range(1, 8):
            for d in range(0, n + 2):
                cols, pivots = relations._reduced_pivots(n, d)
                assert quotient_dimension(n, d) == len(cols) - len(pivots), (n, d)

    def test_eliminates_no_full_matrix(self):
        before = relations._reduced_pivots.cache_info()
        for d in range(0, 10):
            quotient_dimension(8, d)
        assert relations._reduced_pivots.cache_info() == before

    def test_rank_nine(self):
        # a rank that verify's pair sweep does not reach
        assert [quotient_dimension(9, d) for d in range(0, 11)] == [math.comb(8, d) for d in range(0, 11)]

    def test_each_level_built_once(self, monkeypatch):
        # d = 0, 1, ..., n+1 in turn: one table fold per monomial that is not
        # square-free, of degree at most n, and none above degree n
        calls = []
        times = oracle._times
        monkeypatch.setattr(oracle, "_times", lambda *args: calls.append(args) or times(*args))
        n = 6
        assert [quotient_dimension(n, d) for d in range(n + 2)] == [math.comb(n - 1, d) for d in range(n + 2)]
        assert len(calls) == sum(math.comb(n + k - 2, k) - math.comb(n - 1, k) for k in range(n + 1))

    def test_wrong_table_entry_lowers_the_count(self, monkeypatch):
        # NF(g_2 * x_{2}) at rank 4 tripled: the relation row of g_2^2 no
        # longer reduces to zero, so degree 2 loses a dimension
        step_tripled(monkeypatch)
        assert quotient_dimension(4, 2) == 2
        assert quotient_dimension(4, 1) == 3

    def test_unreduced_monomial_raises(self, monkeypatch):
        # without its 2*g_j^2 term no relation row eliminates g_1^2 at rank 2
        own_row = oracle._own_row
        monkeypatch.setattr(oracle, "_own_row", lambda mono: {t: v for t, v in own_row(mono).items() if t != mono})
        assert quotient_dimension(2, 1) == 1
        for d in (2, 3):
            with pytest.raises(PresentationError, match=r"monomial \(2,\) at rank 2, degree 2"):
                quotient_dimension(2, d)


def _graded_dimensions_fail(n):
    try:
        return any(quotient_dimension(n, d) != math.comb(n - 1, d) for d in range(n + 2))
    except PresentationError:
        return True


def _certificate_fails(n):
    try:
        return any(presentation_failures(n, size) for size in range(n))
    except PresentationError:
        return True


# single-entry corruptions of a table entry (row, denominator)
CORRUPTIONS = {
    "tripled row": lambda row, den: ({L: 3 * v for L, v in row.items()}, den),
    "dropped term": lambda row, den: ({L: v for L, v in row.items() if L != min(row)}, den),
    "one unit moved": lambda row, den: ({L: v - (L == min(row)) + (L == max(row)) for L, v in row.items()}, den),
    "doubled denominator": lambda row, den: (row, 2 * den),
}


class TestPresentationCertificate:
    def test_passes_to_rank_nine(self):
        for n in range(1, 10):
            assert [presentation_failures(n, size) for size in range(n)] == [[]] * n, n

    def test_builds_no_normal_form(self):
        before = oracle._normal_form.cache_info()
        assert not any(presentation_failures(8, size) for size in range(8))
        assert oracle._normal_form.cache_info() == before

    def test_names_each_failing_check(self, monkeypatch):
        # NF(g_2 * x_{2}) at rank 4 tripled: r_2 fails on x_0, and on x_{2}
        # every check whose two steps reach the entry fails
        step_tripled(monkeypatch)
        assert [presentation_failures(4, size) for size in range(4)] == [
            [(0, 2, 2)], [(0b010, 1, 2), (0b010, 2, 3), (0b010, 1, 1), (0b010, 2, 2), (0b010, 3, 3)], [], []]

    def test_entry_that_does_not_reduce_raises(self, monkeypatch):
        # without its 2*g_j^2 term no relation row eliminates g_1^2 at rank 2:
        # r_1 on x_0 builds that degree-2 entry
        own_row = oracle._own_row
        monkeypatch.setattr(oracle, "_own_row", lambda mono: {t: v for t, v in own_row(mono).items() if t != mono})
        with pytest.raises(PresentationError, match=r"monomial \(2,\) at rank 2, degree 2"):
            presentation_failures(2, 0)

    def test_same_verdict_as_graded_dimensions_on_every_corrupted_entry(self, monkeypatch):
        # every single-entry corruption of the table at n = 3..5: the
        # certificate fails or raises exactly when some graded dimension is
        # not a binomial or raises
        verdicts = {}
        for n in range(3, 6):
            entries = [(i, S) for S in range(1 << (n - 1)) for i in range(1, n) if S >> (i - 1) & 1]
            for (i, S), (name, corrupt) in itertools.product(entries, CORRUPTIONS.items()):
                empty_memos(monkeypatch)
                plant(monkeypatch, oracle, "_step", (n, i, S), lambda entry, corrupt=corrupt: corrupt(*entry))
                verdict = _certificate_fails(n)
                assert verdict == _graded_dimensions_fail(n), (n, i, S, name)
                verdicts[verdict] = verdicts.get(verdict, 0) + 1
        assert verdicts == {True: 124, False: 68}

    def test_run_rule_is_the_table_to_rank_ten(self):
        # the run rule's step in the x basis is the table entry NF(g_i * x_S)
        # for every S and i in S, n <= 10: with the certificate, the run rule
        # is the multiplication of the quotient at these ranks
        from petring.intervals import run_step

        steps = 0
        for n in range(2, 11):
            for S in range(1 << (n - 1)):
                for i in (k + 1 for k in range(n - 1) if S >> k & 1):
                    _, _, den, moves = run_step(S, i, n)
                    row, denom = oracle._step(n, i, S)
                    assert {L: Fraction(v, denom) for L, v in row.items()} == {
                        S | 1 << (t - 1): Fraction(num, den) for t, num in moves}, (n, i, S)
                    steps += 1
        assert steps == 4097

    def test_run_rule_is_the_table_at_ranks_eleven_and_twelve(self):
        # the same step certificate at n = 11 and 12, past the ranks of the
        # exhaustive sweeps: 10 * 2^9 + 11 * 2^10 entries, compared with
        # denominators cleared
        from petring.intervals import run_step

        steps = 0
        for n in (11, 12):
            for S in range(1 << (n - 1)):
                for i in (k + 1 for k in range(n - 1) if S >> k & 1):
                    _, _, den, moves = run_step(S, i, n)
                    row, denom = oracle._step(n, i, S)
                    assert {L: v * den for L, v in row.items()} == {
                        S | 1 << (t - 1): num * denom for t, num in moves}, (n, i, S)
                    steps += 1
        assert steps == 10 * 2**9 + 11 * 2**10 == 16384


class TestStructureConstantsLinalg:
    def test_golden_example(self):
        J = IndexSet.parse("1,3,5,6,7", 10)
        K = IndexSet.parse("3,6,8", 10)
        got = structure_constants_linalg(J, K)
        assert got == {
            IndexSet.parse("1,2,3,4,5,6,7,8", 10): 3456,
            IndexSet.parse("1,2,3,5,6,7,8,9", 10): 24,
            IndexSet.parse("1,3,4,5,6,7,8,9", 10): 240,
        }

    def test_disjoint_supports(self):
        from petring.intervals import m_factor

        J = IndexSet.of(7, [1, 2])
        K = IndexSet.of(7, [4, 5])
        union = J.union(K)
        got = structure_constants_linalg(J, K)
        assert got == {union: Fraction(m_factor(union), m_factor(J) * m_factor(K))}
        assert got[union].denominator == 1

    def test_above_top_degree(self):
        assert structure_constants_linalg(IndexSet.of(3, [1, 2]), IndexSet.of(3, [1, 2])) == {}

    def test_agrees_with_rewrite(self):
        for n in range(1, 7):
            for J in all_index_sets(n):
                for K in all_index_sets(n):
                    by_rewrite = structure_constants_rewrite(J, K)
                    by_linalg = structure_constants_linalg(J, K)
                    assert by_linalg == by_rewrite, (n, J, K)

    def test_deterministic(self):
        J = IndexSet.of(6, [1, 2, 3])
        K = IndexSet.of(6, [2, 3])
        assert structure_constants_linalg(J, K) == structure_constants_linalg(J, K)
