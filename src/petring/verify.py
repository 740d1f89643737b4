"""The body of ``petring verify``, whose options and help ``cli`` registers: the checks, the pair sweep and the
process pool.  They read ``cli._expansion_row`` and the engines through their modules at call time."""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys

from . import cli, diagrams, oracle, permutations, ring
from .errors import ConsistencyError
from .intervals import IndexSet, all_index_sets

__all__ = ["CHECKS", "run"]

VERIFY_RANKS = range(1, cli.MAX_VERIFY_RANK + 1)


def _named(exc: Exception) -> str:
    """An engine's error as a failure line gives it: a ConsistencyError by its message, any other by its type too."""
    return str(exc) if isinstance(exc, ConsistencyError) else f"{type(exc).__name__}: {exc}"


def _verify_chunk(n: int, unions: range) -> list[str]:
    """The failure lines of `verify`'s pair sweep over the (J, K) mask pairs whose J | K is in ``unions``, by
    J | K, then J, then K: a pair whose engines raise or disagree, in the words of ``_expansion_row(..., "all")``
    as :func:`_named` gives them, or whose row differs from its transpose's.  A pair's ``diagram_row`` must
    equal the kernel's row, and ``linalg_row`` at the first pair of its class (J | K, J & K)."""
    linalg_agreed, results = {}, {}  # linalg's verdict by class; each pair's row or error, by J, then K
    for jm in range(1 << (n - 1)):
        try:
            rewrites = dict(ring.rewrite_rows(n, jm, ks := [km for km in range(1 << (n - 1)) if jm | km in unions]))
        except Exception:  # rows of None, which no game row equals: each pair is checked again below
            rewrites = dict.fromkeys(ks)
        results[jm] = found = {}
        for km in ks:
            try:
                row = diagrams.diagram_row(n, jm, km)
                if (agreed := linalg_agreed.get(key := (jm | km, jm & km))) is None:
                    agreed = linalg_agreed[key] = oracle.linalg_row(n, jm, km) == row
                if agreed and rewrites.get(km, ()) == row:
                    found[km] = row
                    continue
            except Exception:  # checked again below, where an error is named
                pass
            try:
                found[km] = cli._expansion_row(n, jm, km, "all")
            except Exception as exc:
                found[km] = exc
    failed = sorted([(jm | km, jm, km) for jm, found in results.items() for km, row in found.items()
                     if isinstance(row, Exception) or results[km][jm] != row])
    return [f"n={n} J={IndexSet.from_mask(n, jm)} K={IndexSet.from_mask(n, km)}: "
            f"{_named(row) if isinstance(row := results[jm][km], Exception) else 'expansion not symmetric'}"
            for _, jm, km in failed]


def _pair_blocks(n: int, jobs: int) -> list[range]:
    """The union masks J | K of rank n in ``jobs`` contiguous ranges of whole classes, so that one worker alone
    fills a class's memos, and of about equal cost: a pair costs one if |J| + |K| = |J | K| + |J & K| <= n - 1,
    and C(u, m) * 2^(u - m) pairs have |J | K| = u and |J & K| = m."""
    cost = [sum(math.comb(u, m) << (u - m) for m in range(min(u + 1, n - u))) for u in range(n)]
    total, spent, cuts = sum(math.comb(n - 1, u) * cost[u] for u in range(n)), 0, [0]
    for union in range(1 << (n - 1)):
        if spent >= total * len(cuts) / jobs:
            cuts.append(union)
        spent += cost[union.bit_count()]
    return [range(start, stop) for start, stop in zip(cuts, cuts[1:] + [1 << (n - 1)])]


def _graded_dimensions(n: int, _) -> list[str]:
    """Degree d of the quotient has dimension C(n-1, d) for every d, certified by ``presentation_failures``
    at |S| = 0..n-1; an entry that raises fails the check, named by its degree d = |S| + 2."""
    mismatch = []
    for size in range(n):
        try:
            if oracle.presentation_failures(n, size):
                mismatch = [f"n={n}: graded dimensions do not match binomials"]
        except Exception as exc:
            return mismatch + [f"n={n} d={size + 2}: {_named(exc)}"]
    return mismatch


def _bruhat_criteria(n: int, _) -> list[str]:
    """s_i <= w_J exactly when i is in J, and w_J' <= w_J exactly when J' is a subset of J."""
    sets = [(J, permutations.longest_wj(J)) for J in all_index_sets(n)]
    s, leq = {i: permutations.simple_transposition(n, i) for i in range(1, n)}, permutations.bruhat_leq
    if all(leq(s[i], w) == (i in J) for J, w in sets for i in range(1, n)) \
            and all(leq(wp, w) == Jp.issubset(J) for J, w in sets for Jp, wp in sets):
        return []
    return [f"n={n}: Bruhat comparisons disagree with the subset criteria"]


def _top_degree(n: int, _) -> list[str]:
    """The integral of g_i^(n-1) by the run rule, by the relations, and as the Eulerian number A(n-1, i-1), on ints."""
    full, failures = (1 << (n - 1)) - 1, []
    for i in range(1, n):
        try:
            power = functools.reduce(lambda c, _: ring._varpi_product(n, c, {1 << (i - 1): 1}), range(n - 1), {0: 1})
            row, den = oracle._normal_form(n, tuple(n - 1 if k == i else 0 for k in range(1, n)))
        except Exception as exc:
            failures.append(f"n={n} i={i}: {_named(exc)}")
            continue
        by_rule, by_relations = power.get(full, 0), math.factorial(n - 1) * row.get(full, 0)
        eulerian = sum((-1) ** j * math.comb(n, j) * (i - j) ** (n - 1) for j in range(i))
        if not by_rule * den == by_relations == eulerian * den:
            g = math.gcd(by_relations, den)  # the relations' value, shown as a Fraction shows it
            shown = by_relations // g if g == den else f"{by_relations // g}/{den // g}"
            failures.append(f"n={n} i={i}: integral of g_{i}^{n - 1} is {by_rule} by the run rule, "
                            f"{shown} by the relations, Eulerian number {eulerian}")
    return failures


# The checks of `verify`, in output order: the line after "n=N: ", the ranks it
# runs at, the check (n, part) -> failure lines, which catches its own errors,
# and the cut (n, jobs) -> parts, or None for one part per rank.
CHECKS = [
    ("{pairs} (J,K) pairs cross-checked over three engines", VERIFY_RANKS, _verify_chunk, _pair_blocks),
    ("graded dimensions 0..{top} {status}", VERIFY_RANKS, _graded_dimensions, None),
    ("Bruhat subset criteria {status}", range(1, 7), _bruhat_criteria, None),
    ("top-degree evaluation {status}", VERIFY_RANKS[1:], _top_degree, None),
]


def run(n_max: int, jobs: int) -> None:
    """Run every check of CHECKS at every rank up to n_max, in ``jobs`` worker processes if above one, and
    print its lines; ConsistencyError after the failure lines on stderr if any check fails."""
    if jobs == 1:
        failures = _verify_ranks(n_max, jobs, map)
    else:
        # imported here: a run with --jobs 1 starts no pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pin = {}
        if hasattr(os, "sched_setaffinity"):  # else the kernel may keep every worker on one CPU
            mask, ids = itertools.cycle(sorted(os.sched_getaffinity(0))), multiprocessing.SimpleQueue()
            for _ in range(jobs):  # one CPU of the mask per worker, cycling if --jobs exceeds it
                ids.put(next(mask))
            pin = {"initializer": _pin_worker, "initargs": (ids,)}
        with ProcessPoolExecutor(max_workers=jobs, **pin) as pool:
            failures = _verify_ranks(n_max, jobs, pool.map)
    if failures:
        sys.stdout.flush()  # the check lines first, also when both streams go to one file
        print("\n".join(f"FAIL {line}" for line in failures), file=sys.stderr)
        raise ConsistencyError(f"{len(failures)} verification check(s) failed")
    print("all checks passed")


def _pin_worker(ids) -> None:
    """The pool's initializer: pin this worker to the next CPU id of ``ids``."""
    os.sched_setaffinity(0, {ids.get()})


def _verify_ranks(n_max: int, jobs: int, sweep) -> list[str]:
    """Map every (rank, check) of CHECKS by ``sweep`` from rank n_max down, so that a pool starts on the
    costliest, then print one line per (rank, check) from rank 1 up; returns the failure lines."""
    mapped = []
    for n, (line, ranks, check, cut) in itertools.product(range(n_max, 0, -1), CHECKS):
        if n in ranks:
            parts = cut(n, jobs) if cut else [None]
            mapped.append((n, line, sweep(check, [n] * len(parts), parts)))
    failures: list[str] = []
    for n, line, results in sorted(mapped, key=lambda m: m[0]):  # stable: CHECKS order within a rank
        lines = [failure for part in results for failure in part]
        print(f"n={n}: " + line.format(pairs=4 ** (n - 1), top=n + 1, status="FAIL" if lines else "OK"))
        failures += lines
    return failures
