"""`verify`'s pair sweep against the per-pair sweep it replaced: the game's
row and the rewrite are checked on every pair, linalg once per
(J | K, J & K) class, and the game is played once per class; on every
planted fault the failure lines are those of the sweep that ran all three
engines on every pair."""

import functools
import itertools
import pickle
import random

import pytest

import petring.cli
import petring.verify
from helpers import empty_memos, plant
from petring import diagrams, intervals, oracle, ring
from petring.errors import ConsistencyError
from petring.intervals import IndexSet


def _reference_chunk(n, unions):
    """The per-pair sweep over the pairs whose J | K is in ``unions``, listed by
    a stable sort of all pairs on J | K: the three-engine row of every pair in
    (J, K) order, an error that is not a ConsistencyError named with its type."""
    pairs = sorted(itertools.product(range(1 << (n - 1)), repeat=2), key=lambda p: p[0] | p[1])
    results = dict.fromkeys((jm, km) for jm, km in pairs if jm | km in unions)
    for jm, km in sorted(results):
        try:
            results[jm, km] = petring.cli._expansion_row(n, jm, km, "all")
        except ConsistencyError as exc:
            results[jm, km] = exc
        except Exception as exc:  # any other error that an engine raises, named with its type
            results[jm, km] = ConsistencyError(f"{type(exc).__name__}: {exc}")
    failures = []
    for (jm, km), row in results.items():
        if isinstance(row, Exception) or results[km, jm] != row:
            problem = row if isinstance(row, Exception) else "expansion not symmetric"
            failures.append(f"n={n} J={IndexSet.from_mask(n, jm)} K={IndexSet.from_mask(n, km)}: {problem}")
    return failures


def _reference_blocks(n, jobs):
    """The blocks cut from all pairs sorted by union mask, each class costed pair by pair."""
    pairs = sorted(itertools.product(range(1 << (n - 1)), repeat=2), key=lambda p: p[0] | p[1])
    classes = [list(union_class) for _, union_class in itertools.groupby(pairs, key=lambda p: p[0] | p[1])]
    costs = [sum(jm.bit_count() + km.bit_count() < n for jm, km in union_class) for union_class in classes]
    total, spent = sum(costs), 0
    blocks = [[]]
    for union_class, cost in zip(classes, costs):
        if spent >= total * len(blocks) / jobs:
            blocks.append([])
        blocks[-1] += union_class
        spent += cost
    return blocks


@pytest.mark.parametrize("n", range(1, 9))
def test_blocks_match_the_sorted_reference(n):
    for jobs in (1, 2, 3):
        unions = [sorted({jm | km for jm, km in block}) for block in _reference_blocks(n, jobs)]
        assert [list(block) for block in petring.verify._pair_blocks(n, jobs)] == unions


@pytest.mark.parametrize("n", range(1, 12))
def test_blocks_are_ranges_of_union_masks(n):
    # the parent lists no pair: each block travels as a range of J | K masks,
    # and the blocks cut range(2^(n-1)) into contiguous pieces
    for jobs in (1, 2, 3):
        blocks = petring.verify._pair_blocks(n, jobs)
        assert all(type(block) is range and block.step == 1 and block for block in blocks)
        assert [block.start for block in blocks[1:]] == [block.stop for block in blocks[:-1]]
        assert (blocks[0].start, blocks[-1].stop) == (0, 2 ** (n - 1))
        assert all(len(pickle.dumps(block)) < 200 for block in blocks)


# the memoized engine internals a fault is planted in, and the module that holds each
ENTRIES = {"_step": oracle, "_game_sums": diagrams, "_transition": ring}


@functools.cache
def _entries_read(name, n):
    """Every entry of ``name`` that a clean sweep at rank n reads, as (arguments, entry), by arguments."""
    module, read = ENTRIES[name], {}
    with pytest.MonkeyPatch.context() as mp:
        empty_memos(mp)
        memo = getattr(module, name)
        mp.setattr(module, name, lambda *args: read.setdefault(args, memo(*args)))
        assert petring.verify._verify_chunk(n, petring.verify._pair_blocks(n, 1)[0]) == []
    return sorted(read.items())


def _corrupted(terms, rng, n):
    """One (mask, value) term of ``terms`` changed: its value off by one,
    doubled, negated or zero, its mask moved, or the term dropped."""
    k = rng.randrange(len(terms))
    mask, value = terms[k]
    kind = rng.choice(["plus one", "minus one", "doubled", "negated", "zero", "moved", "dropped"])
    changed = {"plus one": [(mask, value + 1)], "minus one": [(mask, value - 1)], "doubled": [(mask, 2 * value)],
               "negated": [(mask, -value)], "zero": [(mask, 0)],
               "moved": [(rng.choice([m for m in range(1 << (n - 1)) if m != mask]), value)], "dropped": []}[kind]
    return terms[:k] + changed + terms[k + 1:]


def _terms(name, entry):
    """The (mask, value) terms of an entry of ``name``."""
    return entry if name == "_transition" else tuple(entry[0].items())


def _plant(monkeypatch, name, seed):
    """A single-entry fault in ``name`` at a rank of 3..5, on an entry that the sweep reads; returns the rank."""
    rng = random.Random(seed)
    n = rng.choice([3, 4, 5])
    target, entry = rng.choice([(args, entry) for args, entry in _entries_read(name, n) if _terms(name, entry)])
    terms = _corrupted(list(_terms(name, entry)), rng, n)
    rebuilt = {"_step": lambda out: (dict(terms), out[1]), "_game_sums": lambda out: (dict(terms), out[1], {}),
               "_transition": lambda out: tuple(terms)}[name]
    plant(monkeypatch, ENTRIES[name], name, target, rebuilt)
    return n


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", ENTRIES)
def test_faults_give_the_reference_lines(monkeypatch, name, seed):
    lines = []
    for sweep in (_reference_chunk, petring.verify._verify_chunk):
        with monkeypatch.context() as mp:
            empty_memos(mp)
            n = _plant(mp, name, seed)
            lines.append(sweep(n, petring.verify._pair_blocks(n, 1)[0]))
    assert lines[0] == lines[1]
    assert lines[0], "the planted fault went unseen"


@pytest.mark.parametrize("seed", [2, 5, 7, 9])
def test_fault_lines_keep_their_order_across_the_cut(monkeypatch, seed):
    # a planted fault whose lines fall on both sides of the cut of --jobs 2:
    # the two blocks' lines, joined, are the one block's and the reference's
    n = _plant(monkeypatch, "_transition", seed)
    halves = [petring.verify._verify_chunk(n, block) for block in petring.verify._pair_blocks(n, 2)]
    assert len(halves) == 2 and all(halves)
    whole = petring.verify._verify_chunk(n, petring.verify._pair_blocks(n, 1)[0])
    assert halves[0] + halves[1] == whole == _reference_chunk(n, range(2 ** (n - 1)))


def _kernel_fault_lines(monkeypatch, where, error):
    """The sweep's lines at n = 4 with the kernel raising ``error("injected")`` at one K of J = {2}'s list,
    which must be the reference's, and that K."""
    n, J = 4, 0b010
    ks = range(1 << (n - 1))
    K = {"first": ks[0], "middle": ks[len(ks) // 2], "last": ks[-1]}[where]
    kernel = ring.rewrite_rows

    def faulty(n, jm, kms):
        for km in kms:
            if (jm, km) == (J, K):
                raise error("injected")
            yield from kernel(n, jm, [km])

    monkeypatch.setattr(ring, "rewrite_rows", faulty)
    block = petring.verify._pair_blocks(n, 1)[0]
    lines = _reference_chunk(n, block)
    assert petring.verify._verify_chunk(n, block) == lines
    return lines, IndexSet.from_mask(n, K)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_kernel_fault_on_one_J_gives_the_reference_lines(monkeypatch, where):
    # the kernel raises at one K of J = {2}'s list, before, among or after the
    # rows it yields: every pair of that J is expanded again by all three
    # engines, as in the per-pair sweep, whose rewrite_row meets the same fault
    lines, K = _kernel_fault_lines(monkeypatch, where, ConsistencyError)
    assert f"n=4 J=2 K={K}: injected" in lines


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_kernel_error_of_another_type_is_named_with_it(monkeypatch, where):
    # an engine error that is not a ConsistencyError is a failure line too, named with its type
    lines, K = _kernel_fault_lines(monkeypatch, where, ValueError)
    assert f"n=4 J=2 K={K}: ValueError: injected" in lines


def test_each_engine_read_once_per_input(monkeypatch):
    # at n = 6 the sweep plays each class's game and reduces each class's
    # normal form once, checks the game's tail once per class and divisor
    # m_J * m_K, and hands each pair to the rewrite kernel once, with no
    # three-engine row on a clean sweep
    n = 6
    games, forms, rows, retried, depth, tails = [], [], [], [], [0], []
    play, normal_form, kernel, tail = diagrams._games, oracle._normal_form, ring.rewrite_rows, diagrams.class_tail
    expansion_row = petring.cli._expansion_row

    def m_factor(mask):
        return intervals.decompose_mask(mask).m_factor

    def outermost_form(n, exps):  # the recursion of _normal_form runs through this too
        depth[0] += 1
        try:
            out = normal_form(n, exps)
        finally:
            depth[0] -= 1
        if not depth[0]:
            forms.append(exps)
        return out

    monkeypatch.setattr(diagrams, "_games", lambda n, union, meet: games.append((union, meet)) or
                        play(n, union, meet))
    monkeypatch.setattr(oracle, "_normal_form", outermost_form)
    monkeypatch.setattr(ring, "rewrite_rows", lambda n, J, ks: rows.extend((J, K) for K in ks) or
                        kernel(n, J, ks))
    monkeypatch.setattr(petring.cli, "_expansion_row", lambda n, J, K, method: retried.append((J, K)) or
                        expansion_row(n, J, K, method))
    monkeypatch.setattr(diagrams, "class_tail", lambda engine, n, J, K, *sums: tails.append(
        (J | K, J & K, m_factor(J) * m_factor(K))) or tail(engine, n, J, K, *sums))
    assert petring.verify._verify_chunk(n, petring.verify._pair_blocks(n, 1)[0]) == []
    keys = {(jm | km, jm & km, m_factor(jm) * m_factor(km)) for jm in range(1 << (n - 1)) for km in range(1 << (n - 1))}
    assert sorted(tails) == sorted(keys) and len(keys) == 417
    assert sum(u.bit_count() + meet.bit_count() <= n - 1 for u, meet, _ in keys) == 236
    classes = {(jm | km, jm & km) for jm in range(1 << (n - 1)) for km in range(1 << (n - 1))}
    assert sorted(games) == sorted(classes) and len(classes) == 3 ** (n - 1)
    below_top = [(u, m) for u, m in classes if u.bit_count() + m.bit_count() <= n - 1]
    assert sorted(forms) == sorted(oracle._exponents(n, u, m) for u, m in below_top)
    assert sorted(rows) == [(jm, km) for jm in range(1 << (n - 1)) for km in range(1 << (n - 1))]
    assert retried == []
