"""The body of ``petring verify``, whose options and help ``cli`` registers: its refusals, the checks, the pair
sweep and the forked workers.  They read ``cli._expansion_row`` and the engines through their modules at call time."""

import functools
import itertools
import marshal
import math
import os
import sys

from . import cli, diagrams, oracle, permutations, ring
from .errors import ConsistencyError
from .intervals import all_index_sets, format_mask

__all__ = ["CHECKS", "run"]

VERIFY_RANKS = range(1, 9)  # the ranks that --n-max may name


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
    return [f"n={n} J={format_mask(jm)} K={format_mask(km)}: "
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
# runs at, the check (n, part) -> failure lines, which catches its own errors
# and is in no other row, and the cut (n, jobs) -> parts, or None for one part
# per rank.
CHECKS = [
    ("{pairs} (J,K) pairs cross-checked over three engines", VERIFY_RANKS, _verify_chunk, _pair_blocks),
    ("graded dimensions 0..{top} {status}", VERIFY_RANKS, _graded_dimensions, None),
    ("Bruhat subset criteria {status}", range(1, 7), _bruhat_criteria, None),
    ("top-degree evaluation {status}", VERIFY_RANKS[1:], _top_degree, None),
]


def run(n_max: int, jobs: int) -> None:
    """Run every check of CHECKS at every rank up to n_max, in this process and ``jobs`` - 1 forked ones, and print
    its lines; ConsistencyError after the failure lines on stderr if any check fails.  UsageError before any work
    if ``n_max`` is outside VERIFY_RANKS, ``jobs`` outside [1, the number of CPUs], as this process and its
    children run checks at once, or ``jobs`` above one where ``os.fork`` is missing."""
    if n_max not in VERIFY_RANKS:
        raise cli.UsageError(f"--n-max must be in [1, {VERIFY_RANKS[-1]}]")
    if not (cpus := os.cpu_count() or 1) >= jobs >= 1:
        raise cli.UsageError(f"--jobs must be in [1, {cpus}], the number of CPUs")
    if jobs > 1 and not hasattr(os, "fork"):
        raise cli.UsageError("--jobs above 1 needs os.fork, which this platform does not have")
    sweep = functools.partial(_forked_map, jobs=jobs) if jobs > 1 else lambda tasks: (c(n, p) for c, n, p in tasks)
    if failures := _verify_ranks(n_max, jobs, sweep):
        sys.stdout.flush()  # the check lines first, also when both streams go to one file
        print("\n".join(f"FAIL {line}" for line in failures), file=sys.stderr)
        raise ConsistencyError(f"{len(failures)} verification check(s) failed")
    print("all checks passed")


def _forked_map(tasks: list[tuple], jobs: int) -> list[list[str]]:
    """The lines of each (check, n, part) of ``tasks``, in task order, from this process and ``jobs`` - 1 children
    of ``os.fork``, each on one CPU of the mask, cycling.  Each takes the next task index, 2 bytes, from one pipe,
    costliest (highest n) first, until it is empty; a child sends its {index: lines} back by ``marshal`` through
    a pipe of its own and leaves by ``os._exit``.  Every child is reaped and this process's mask put back, also on
    an error; Refused if a child ends with a nonzero wait status or a task goes unreported."""
    queue, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(2, "big") for i in sorted(range(len(tasks)), key=lambda i: -tasks[i][1])))
    os.close(feed)
    mask, pin = getattr(os, "sched_getaffinity", lambda _: {0})(0), getattr(os, "sched_setaffinity", lambda *_: None)

    def take(cpu: int) -> dict[int, list[str]]:  # on ``cpu``, the lines of each task that this process takes
        pin(0, {cpu})
        indices = map(int.from_bytes, iter(functools.partial(os.read, queue, 2), b""), itertools.repeat("big"))
        return {i: tasks[i][0](*tasks[i][1:]) for i in indices}

    cpus, children, results, statuses = itertools.cycle(sorted(mask)), [], {}, []
    try:
        for cpu in itertools.islice(cpus, jobs - 1):
            reader, writer = os.pipe()
            if not (pid := os.fork()):  # the child: no caller's teardown, no flush of the stdio buffers it copied
                try:  # exit 0 once all of its result is written; 1 if a signal cuts the write short, or on an error
                    os._exit(os.write(writer, sent := marshal.dumps(take(cpu))) != len(sent))
                finally:
                    os._exit(1)
            os.close(writer)
            children.append((pid, reader))
        results.update(take(next(cpus)))
    finally:
        os.close(queue)
        for pid, reader in children:  # each pipe read to its end before its child is reaped
            with open(reader, "rb") as pipe:
                data = pipe.read()
            statuses.append(status := os.waitpid(pid, 0)[1])
            results.update(marshal.loads(data) if data and not status else {})
        pin(0, mask)
    if (unreported := len(tasks) - len(results)) or any(statuses):
        raise cli.Refused(f"a verify worker ended with wait status {max(statuses)}, {unreported} check(s) unreported")
    return [results[i] for i in range(len(tasks))]


def _verify_ranks(n_max: int, jobs: int, sweep) -> list[str]:
    """Map the (check, n, part) tasks of every (rank, check) of CHECKS by one call of ``sweep``, from rank 1 up,
    and print one line per (rank, check) as its results come; returns the failure lines."""
    tasks = [(check, n, part) for n, (_, ranks, check, cut) in itertools.product(range(1, n_max + 1), CHECKS)
             if n in ranks for part in (cut(n, jobs) if cut else [None])]
    names, failures = {check: line for line, _, check, _ in CHECKS}, []
    for (check, n), parts in itertools.groupby(zip(tasks, sweep(tasks)), key=lambda done: done[0][:2]):
        lines = [failure for _, found in parts for failure in found]
        print(f"n={n}: " + names[check].format(pairs=4 ** (n - 1), top=n + 1, status="FAIL" if lines else "OK"))
        failures += lines
    return failures
