"""The mutant matrix: each row plants one class of fault, on fresh memos,
and `verify` must exit 2 at the smallest rank where the fault shows, on the
line that catches it, while the rank below still passes."""

import functools
import math

import pytest

from helpers import GOLDEN, MEMOS, plant, run, to_column_n, wrap_run_step
from petring import algebra, diagrams, errors, intervals, oracle, permutations, relations, ring
from petring.errors import ConsistencyError
from petring.intervals import IndexSet


def _squared_m(monkeypatch):
    # each run's factorial squared, in every module that reads the m-factors
    _m_changed(monkeypatch, lambda found: found.m_factor ** 2)


def _column_zero(monkeypatch):
    # a run step that also moves to column 0 when the run around i starts at 1
    def also_zero(mask, i, n, a, b, den, moves):
        return a, b, den, (((0, 1),) + moves if mask >> (i - 1) & 1 and a == 1 else moves)

    wrap_run_step(monkeypatch, also_zero)


def _transition_off_support(monkeypatch):
    # g_2 times the class on {2} at rank 5 with its term on {1,2} moved onto
    # {3,4}, which does not contain {2}
    plant(monkeypatch, ring, "_transition", (5, 2, 0b0010),
          lambda entry: tuple((0b1100 if L == 0b0011 else L, c) for L, c in entry))


def _relation_coefficient_three(monkeypatch):
    # every relation 3*g_i^2 - g_i*g_{i-1} - g_i*g_{i+1} in place of 2*g_i^2 - ...
    relation_row = oracle._relation_row
    monkeypatch.setattr(oracle, "_relation_row",
                        lambda M, i: {mono: 3 if v == 2 else v for mono, v in relation_row(M, i).items()})


def _own_row_term_dropped(monkeypatch):
    # the last -1 term of each relation row that eliminates a square
    own_row = oracle._own_row

    def dropped(mono):
        row = own_row(mono)
        last = [m for m, v in row.items() if v == -1][-1:]
        return {m: v for m, v in row.items() if [m] != last}

    monkeypatch.setattr(oracle, "_own_row", dropped)


def _first_move_heavier(monkeypatch):
    # g_i times a monomial on a subset holding i: its first move weighs one
    # more, in the rewrite and in the game alike
    def heavier(mask, i, n, a, b, den, moves):
        if mask >> (i - 1) & 1 and moves:
            moves = ((moves[0][0], moves[0][1] + 1),) + moves[1:]
        return a, b, den, moves

    wrap_run_step(monkeypatch, heavier)


def _run_one_column_short(monkeypatch):
    # the run search stops one column short of the run's right end when the
    # run extends past i, in the rewrite and in the game alike
    step = intervals.run_step  # the clean step: the wrapped one replaces intervals.run_step

    def short(mask, i, n, a, b, den, moves):
        return step(mask & ~(1 << (b - 1)), i, n) if b > i else (a, b, den, moves)

    wrap_run_step(monkeypatch, short)


def _column_n(monkeypatch):
    # a run step that also moves to column n when the run around i ends at n - 1
    wrap_run_step(monkeypatch, to_column_n)


def _m_changed(monkeypatch, change):
    # each m-factor replaced by change(the clean decomposition) in the one m-factor memo, intervals.mask_m_factor,
    # which the engines, the checked tail, m_factor and the class algebra read at call time
    decompose = intervals.decompose_mask
    monkeypatch.setattr(intervals, "mask_m_factor", functools.cache(lambda mask: change(decompose(mask))))


def _m_doubled_per_pair_run(monkeypatch):
    # m times 2 for each run of length 2
    _m_changed(monkeypatch, lambda found: found.m_factor * 2 ** sum(hi - lo == 1 for lo, hi in found.runs))


def _m_times_runs_factorial(monkeypatch):
    # m times (number of runs)!
    _m_changed(monkeypatch, lambda found: found.m_factor * math.factorial(len(found.runs)))


def _class_divisor_without_m_K(monkeypatch):
    # the per-pair tail of the game and linalg, errors.class_tail, applies m_factor(L) but divides by m_factor(J) alone
    def dropped(engine, n, J, K, row, denom):
        m = intervals.mask_m_factor
        return errors.constants(engine, n, J, K, [(L, v * m(L)) for L, v in row], denom * m(J))

    monkeypatch.setattr(errors, "class_tail", dropped)


def _bruhat_last_prefix_skipped(monkeypatch):
    # the rank criterion of `verify`'s Bruhat check without its last prefix, of length n - 1
    leq = permutations.bruhat_leq
    monkeypatch.setattr(permutations, "bruhat_leq", lambda u, v: leq(u[:-1], v[:-1]))


def _linalg_row_first_term(monkeypatch):
    # the row that `expand` reads from linalg, cut to its first term
    row = oracle.linalg_row
    monkeypatch.setattr(oracle, "linalg_row", lambda n, J, K: row(n, J, K)[:1])


def _diagram_row_doubled_on_a_meet(monkeypatch):
    # the row that `expand` reads from the game, each constant doubled when J & K is nonempty
    row = diagrams.diagram_row
    monkeypatch.setattr(diagrams, "diagram_row",
                        lambda n, J, K: tuple((L, 2 * d if J & K else d) for L, d in row(n, J, K)))


def _fold_keyed(monkeypatch, last):
    # the rewrite's one fold, with the generator that it takes off the class, U's top member 1 << (top - 1),
    # replaced by last(U, top)
    @functools.cache
    def fold(n, U, M):
        if not (top := U.bit_length()):
            return {0: 1}, {}
        bit = last(U, top)
        terms, _ = fold(n, U, M ^ bit) if M & bit else fold(n, U ^ bit, M)
        return ring._varpi_times_generator(terms, top, n), {}

    monkeypatch.setattr(ring, "_fold", fold)


def _fold_key_top_minus_two(monkeypatch):
    # the generator 1 << (top - 2): a negative shift at U = {1}
    _fold_keyed(monkeypatch, lambda U, top: 1 << (top - 2))


def _fold_key_top_plus_one(monkeypatch):
    # the generator 1 << (top + 1), not in U: a class one member larger at every step, without end
    _fold_keyed(monkeypatch, lambda U, top: 1 << (top + 1))


def _fold_from_the_lowest_member(monkeypatch):
    # one step by U's top generator from the class without U's lowest member: a fault that raises nothing
    # itself, g_top once too often and the lowest generator once too few; generators commute, so the step by
    # the lowest generator from that class would be equivalent
    _fold_keyed(monkeypatch, lambda U, top: U & -U)


def _square_free_move_doubled(monkeypatch):
    # g_2 times the class on {1} at rank 3 with its step doubled: a move by a generator not in the subset,
    # which the rewrite takes as it builds x_U one generator at a time, and the game never plays
    plant(monkeypatch, ring, "_transition", (3, 2, 0b01), lambda entry: tuple((L, 2 * c) for L, c in entry))


# (fault, smallest rank at which verify fails, the start of its first FAIL line,
# and the check line that reads FAIL, or None for the pair sweep, whose line has no status)
MUTANTS = [
    (_squared_m, 3, "FAIL n=3 i=1: ", "n=3: top-degree evaluation FAIL"),
    (_column_zero, 2, "FAIL n=2 J=1 K=1: run rule g_1 from mask 1 at rank 2 moves to column 0", None),
    (_transition_off_support, 5, "FAIL n=5 J=2 K=2: rewrite engine gave a term on L=3,4 for J=2, K=2, outside",
     None),
    (_relation_coefficient_three, 3, "FAIL n=3 J=1 K=1: linalg engine gave d = 2/3 for J=1, K=1, L=1,2",
     "n=3: graded dimensions 0..4 FAIL"),
    (_own_row_term_dropped, 3, "FAIL n=3 J=1 K=1: engines disagree for J=1, K=1, first at L=1,2: "
     "diagram d=1, rewrite d=1, linalg no term", "n=3: graded dimensions 0..4 FAIL"),
    (_first_move_heavier, 3, "FAIL n=3 J=1 K=1: engines disagree for J=1, K=1, first at L=1,2: "
     "diagram d=2, rewrite d=2, linalg d=1", "n=3: top-degree evaluation FAIL"),
    (_run_one_column_short, 3, "FAIL n=3 J=1 K=1,2: diagram engine gave a term on L=1,2 for J=1, K=1,2, outside the L "
     "containing J | K", None),
    (_column_n, 2, "FAIL n=2 J=1 K=1: diagram engine gave a term on L=1,2 for J=1, K=1, outside {1, ..., 1}", None),
    (_m_doubled_per_pair_run, 3, "FAIL n=3 i=1: integral of g_1^2 is 2 by the run rule, 1 by the relations",
     "n=3: top-degree evaluation FAIL"),
    (_m_times_runs_factorial, 4, "FAIL n=4 J=1 K=1,3: diagram engine gave d = 6/4 for J=1, K=1,3, L=1,2,3, expected a "
     "non-negative integer", None),
    (_class_divisor_without_m_K, 3, "FAIL n=3 J=- K=1,2: engines disagree for J=-, K=1,2, first at L=1,2: "
     "diagram d=2, rewrite d=1, linalg d=2", None),
    (_bruhat_last_prefix_skipped, 2, "FAIL n=2: Bruhat comparisons disagree with the subset criteria",
     "n=2: Bruhat subset criteria FAIL"),
    (_fold_key_top_minus_two, 2, "FAIL n=2 J=- K=1: ValueError: negative shift count",
     "n=2: top-degree evaluation FAIL"),
    (_fold_key_top_plus_one, 2, "FAIL n=2 J=- K=1: RecursionError: maximum recursion depth exceeded",
     "n=2: top-degree evaluation FAIL"),
    (_fold_from_the_lowest_member, 3, "FAIL n=3 J=- K=1,2: rewrite engine gave d = 1/2 for J=-, K=1,2, L=1,2, "
     "expected a non-negative integer", None),
    (_square_free_move_doubled, 3, "FAIL n=3 J=- K=1,2: engines disagree for J=-, K=1,2, first at L=1,2: "
     "diagram d=1, rewrite d=2, linalg d=1", None),
    (_linalg_row_first_term, 4, "FAIL n=4 J=2 K=2: engines disagree for J=2, K=2, first at L=2,3: "
     "diagram d=1, rewrite d=1, linalg no term", None),
    (_diagram_row_doubled_on_a_meet, 3, "FAIL n=3 J=1 K=1: engines disagree for J=1, K=1, first at L=1,2: "
     "diagram d=2, rewrite d=1, linalg d=1", None),
]


@pytest.mark.parametrize("fault, rank, first, status", MUTANTS, ids=[row[0].__name__ for row in MUTANTS])
def test_verify_catches(capsys, monkeypatch, fault, rank, first, status):
    fault(monkeypatch)
    assert run(capsys, "verify", "--n-max", str(rank - 1))[0] == 0
    code, out, err = run(capsys, "verify", "--n-max", str(rank))
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines()[0].startswith(first)
    assert status is None or status in out.splitlines()


def test_column_zero_exits_2_in_every_command(capsys, monkeypatch):
    _column_zero(monkeypatch)
    for method in ("rewrite", "diagram"):
        code, out, err = run(capsys, "expand", "-n", "4", "-J", "1", "-K", "1", "--method", method)
        assert (code, out) == (2, "")
        assert err == "consistency failure: run rule g_1 from mask 1 at rank 4 moves to column 0\n"
    for argv in (["table", "-n", "4"], ["verify", "--n-max", "4"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "Traceback" not in err and "moves to column 0" in err


def test_multiply_ends_in_the_checked_tail(monkeypatch):
    # the class algebra is the bilinear extension of the rewrite's checked rows,
    # so a transition entry off the support is refused, not summed into a class
    _transition_off_support(monkeypatch)
    g2 = algebra.monomial(IndexSet.of(5, [2]))
    with pytest.raises(ConsistencyError, match=r"rewrite engine gave a term on L=3,4 for J=2, K=2, outside"):
        algebra.multiply(g2, g2)


@pytest.mark.parametrize("case", ["first", "second"])
def test_every_test_starts_with_empty_memos(capsys, case):
    # each case finds every memo that MEMOS found empty and leaves each one filled: the golden example fills the
    # engines' and the one m-factor memo, and a call the relation reference's (the class algebra binds none of its
    # own, and its product reads the rewrite's), so the case that runs second fails unless every test starts on
    # empty memos; a memo that none of these reaches is named
    memos = {(module.__name__, name): getattr(module, name) for module, name in MEMOS}
    assert {key: memo.cache_info().currsize for key, memo in memos.items()} == dict.fromkeys(memos, 0)
    assert run(capsys, *GOLDEN)[0] == 0
    algebra.multiply(algebra.monomial(IndexSet.of(4, [2])), algebra.monomial(IndexSet.of(4, [2])))
    relations._reduced_pivots(4, 2)
    assert [key for key, memo in memos.items() if not memo.cache_info().currsize] == []
