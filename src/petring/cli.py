"""The ``petring`` command line: one argparse parser, ``cli``, with the
subcommands ``expand``, ``diagrams``, ``verify``, ``table`` and ``group``
in ``cli.commands``.  Of the package, importing it runs only ``errors``
and ``intervals``, and it loads no ``fractions`` or ``concurrent.futures``:
the engine modules run on first use, so ``expand --cached`` runs none.

Exit codes: 0 on success; 1 on a usage error, a refused request or a
standard output closed early; 2 on a ConsistencyError, such as engines
that disagree, a failed `verify` check or a cached row that fails the
checked tail.
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib.util
import io
import itertools
import json
import math
import os
import sys

from .errors import ConsistencyError, Row, class_tail, constants
from .intervals import IndexSet, all_index_sets, decimal, decompose, factor_ranks, hessenberg_function


def _lazy(name: str):
    """``petring.<name>`` as already imported, else bound as an import binds it, to run on first attribute access."""
    if (module := sys.modules.get(f"{__package__}.{name}")) is None:
        spec = importlib.util.find_spec(f"{__package__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


diagrams, oracle, permutations, ring = map(_lazy, ("diagrams", "oracle", "permutations", "ring"))

__all__ = ["cli", "main", "entry"]

MAX_QUERY_RANK = 16
MAX_VERIFY_RANK = 8
VERIFY_RANKS = range(1, MAX_VERIFY_RANK + 1)
MAX_TABLE_PAIRS = 4**10  # a full n = 11 table; `table` refuses requests that admit more pairs

ENGINES = {"diagram": (diagrams, "diagram_row"), "rewrite": (ring, "rewrite_row"), "linalg": (oracle, "linalg_row")}


class UsageError(Exception):
    """A bad command line: exit 1, with "error: <message>" on stderr."""

    prefix = "error"


class Refused(UsageError):
    """A request refused for its input (a table over the cap, a cache file
    that cannot serve it): exit 1, with "Error: <message>" on stderr."""

    prefix = "Error"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # in place of argparse's usage message and exit 2
        raise UsageError(message)


cli = _Parser(prog="petring", description="Exact structure constants for the Peterson cohomology basis.",
              allow_abbrev=False)
cli.commands = {}  # name: subparser, whose ``callback`` runs the command
_subparsers = cli.add_subparsers(dest="command", required=True)


def command(name: str, *options: tuple[tuple[str, ...], dict]):
    """Register the decorated function as the subcommand ``name``, with its
    options given by :func:`option`; its docstring is the help."""

    def register(fn):
        parser = cli.commands[name] = _subparsers.add_parser(
            name, help=fn.__doc__.split(".")[0] + ".", description=fn.__doc__, allow_abbrev=False)
        parser.callback = fn
        for flags, kwargs in options:
            parser.add_argument(*flags, **kwargs)
        return fn

    return register


def option(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


def _file(path: str, must_exist: bool = False) -> str:
    """The argparse type of ``--out`` and, with ``must_exist``, of ``--cached``: ``path`` itself if it is
    not empty, its directory exists, and it names a regular file or, for ``--out``, nothing yet; the file
    must be readable (``--cached``) or writable with its directory (``--out``).  Else ArgumentTypeError."""
    if path and not os.path.exists(path):
        if must_exist or not os.path.isdir(os.path.dirname(path) or "."):
            raise argparse.ArgumentTypeError(f"{'file' if must_exist else 'directory of'} {path!r} does not exist")
    elif not os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"{path!r} is not a regular file")
    elif not os.access(path, os.R_OK if must_exist else os.W_OK):
        raise argparse.ArgumentTypeError(f"{path!r} is not {'readable' if must_exist else 'writable'}")
    if not (must_exist or os.access(os.path.dirname(path) or ".", os.W_OK)):
        raise argparse.ArgumentTypeError(f"directory of {path!r} is not writable")
    return path


RANK = option("-n", "--rank", dest="n", type=decimal, required=True, help="Ambient rank.")
SUBSET_J = option("-J", dest="j_text", default="-", metavar="SUBSET", help='First subset, e.g. "1,3,5" ("-" = empty).')
SUBSET_K = option("-K", dest="k_text", default="-", metavar="SUBSET", help="Second subset.")


def _expansion_row(n: int, J: int, K: int, method: str) -> Row:
    """The checked row of one engine, or of all three if they agree exactly; else ConsistencyError naming
    the first L at which the rows differ and every engine's row, in ENGINES order."""
    if method != "all":
        return getattr(*ENGINES[method])(n, J, K)
    rows = {name: getattr(module, attr)(n, J, K) for name, (module, attr) in ENGINES.items()}
    if len(set(rows.values())) == 1:
        return rows["diagram"]
    found = {name: dict(row) for name, row in rows.items()}
    first = min(L for d in found.values() for L in d if len({e.get(L, 0) for e in found.values()}) > 1)
    subset = functools.partial(IndexSet.from_mask, n)
    raise ConsistencyError(
        f"engines disagree for J={subset(J)}, K={subset(K)}, first at L={subset(first)}: "
        + ", ".join(f"{e} d={d.get(first, 0)}" for e, d in found.items()) + "; "
        + " ".join(f"{e}={ {subset(L).format(): c for L, c in row} }" for e, row in rows.items()))


def _parse_subset(ctx_name: str, text: str, n: int) -> IndexSet:
    try:
        return IndexSet.parse(text, n)
    except ValueError as exc:
        raise UsageError(f"bad {ctx_name}: {exc}") from None


def _check_rank(n: int) -> None:
    if not 1 <= n <= MAX_QUERY_RANK:
        raise UsageError(f"rank must be in [1, {MAX_QUERY_RANK}], got {n}")


@command("expand", RANK, SUBSET_J, SUBSET_K,
         option("--method", choices=(*ENGINES, "all"), default="all", help="Engine (default: all)."),
         option("--format", dest="fmt", choices=("json", "csv"), default="json", help="Output (default: json)."),
         option("--cached", type=lambda path: _file(path, must_exist=True), metavar="PATH",
                help="Read the expansion from a table file written by `table` instead of computing."))
def cmd_expand(n: int, j_text: str, k_text: str, method: str, fmt: str, cached: str | None) -> None:
    """Expand a product of two basis classes."""
    _check_rank(n)
    J = _parse_subset("-J", j_text, n)
    K = _parse_subset("-K", k_text, n)
    if cached is not None:
        row = _lookup_cached(cached, n, J, K)
        method = "cached"
    else:
        row = _expansion_row(n, J.mask, K.mask, method)
    if fmt == "json":
        terms = [{"L": list(IndexSet.from_mask(n, L).as_tuple()), "coeff": str(d)} for L, d in row]
        record = {"n": n, "J": list(J.as_tuple()), "K": list(K.as_tuple()), "method": method, "terms": terms}
        print(json.dumps(record))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "J", "K", "method", "L", "coeff"])
    writer.writerows([n, J.format(), K.format(), method, IndexSet.from_mask(n, L).format(), d] for L, d in row)


def _lookup_cached(path: str, n: int, J: IndexSet, K: IndexSet) -> Row:
    """The checked row of (J, K) in a table file: Refused if the file does not parse or has no rows for a
    nonzero product, ConsistencyError for two rows on one L or a row that fails the checked tail."""
    try:
        pairs = [(IndexSet.parse(L, n).mask, decimal(d)) for L, d in _read_table(path, n, J, K)]
    except (ValueError, KeyError, TypeError) as exc:
        raise Refused(f"cache {path} is malformed: {type(exc).__name__}: {exc}") from None
    masks = sorted(L for L, _ in pairs)
    repeated = [L for L, M in zip(masks, masks[1:]) if L == M]
    if repeated:
        raise ConsistencyError(f"cache {path} has two rows for J={J.format()} K={K.format()} "
                               f"L={IndexSet.from_mask(n, repeated[0]).format()}")
    out = constants("cached", n, J.mask, K.mask, pairs, 1)
    # a table holds only nonzero constants, and the product is nonzero exactly
    # when |J| + |K| <= n - 1: such a pair without rows was left out by filters
    if not out and len(J) + len(K) <= n - 1:
        raise Refused(f"cache {path} has no rows for J={J.format()} K={K.format()}, a nonzero product")
    return out


def _read_table(path: str, n: int, J: IndexSet, K: IndexSet) -> list[list[str]]:
    """The (L, d) cells of the rows for (J, K) in a table file; UsageError if a line read is of another rank.
    A CSV table is bisected over byte offsets for the pair's first line, in the (J mask, K mask) order that
    `table` writes, so in a file out of that order it can find part of a pair's rows, or none: a documented
    limit, as only a scan to the end could see the disorder.  A JSON table is loaded whole."""
    if path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        if data["n"] != n:
            raise UsageError(f"cache {path} is for rank {data['n']}, not {n}")
        key = [list(J.as_tuple()), list(K.as_tuple())]
        # d as its text, as in a CSV table, so that decimal refuses 2.5 or true
        return [[",".join(map(str, r["L"])) or "-", str(r["d"])] for r in data["rows"] if [r["J"], r["K"]] == key]
    buf = io.StringIO()  # the pair's "n,J,K," prefix, quoted as the table's csv.writer quotes it
    csv.writer(buf, lineterminator=",").writerow([n, J.format(), K.format()])
    rank, prefix, target = f"{n},", buf.getvalue(), (J.mask, K.mask)

    def decoded(line: bytes) -> str:
        text = line.decode()
        if not text.startswith(rank):
            raise UsageError(f"cache {path} is for rank {text.split(',', 1)[0]}, not {n}")
        return text

    def below_target(text: str) -> bool:
        _, j, k, *_ = next(csv.reader([text]))  # a ValueError on a line of fewer cells
        return (IndexSet.parse(j, n).mask, IndexSet.parse(k, n).mask) < target

    with open(path, "rb") as fh:
        lo = len(fh.readline())  # the rows start past the header
        if not lo:
            return []  # an empty file
        hi = os.fstat(fh.fileno()).st_size
        # the least offset whose first line at or after it is not below the pair, or is the end
        while lo < hi:
            mid = (lo + hi) // 2
            fh.seek(mid - 1)
            fh.readline()  # the rest of the line that holds byte mid - 1
            line = fh.readline()
            if line and below_target(decoded(line)):
                lo = mid + 1
            else:
                hi = mid
        fh.seek(lo - 1)
        fh.readline()  # to the first line at or after lo
        rows: list[list[str]] = []
        for line in fh:
            text = decoded(line)
            if not text.startswith(prefix):
                break
            rows.append(next(csv.reader([text[len(prefix):]])))
    return rows


@command("diagrams", RANK, SUBSET_J, SUBSET_K,
         option("-L", dest="l_text", required=True, metavar="SUBSET", help="The subset of the product's term."))
def cmd_diagrams(n: int, j_text: str, k_text: str, l_text: str) -> None:
    """List and render the left-right diagrams for one (J, K, L) triple."""
    _check_rank(n)
    J = _parse_subset("-J", j_text, n)
    K = _parse_subset("-K", k_text, n)
    L = _parse_subset("-L", l_text, n)
    found = diagrams.enumerate_diagrams(J, K, L)
    if not found:
        print("no diagrams; d = 0")
        return
    for idx, P in enumerate(found, start=1):
        print(f"diagram {idx} of {len(found)}  (weight {diagrams.weight(P)})")
        print(diagrams.render_ascii(P))
        print("")
    print(f"d = {diagrams.structure_constant(J, K, L)}")


def _verify_chunk(n: int, masks: list[tuple[int, int]]) -> list[str]:
    """The failure lines, in block order, of `verify`'s pair sweep over a block of (J, K) mask pairs that
    holds each pair's transpose: a pair whose engines raise or disagree, in the words of
    ``_expansion_row(..., "all")``, or whose row differs from its transpose's.  The game and linalg run
    once per (J | K, J & K) class, the rewrite once per J's K list."""

    @functools.cache  # the class table of this block
    def agreed(union: int, meet: int) -> tuple | None:
        (game, gd), (lin, ld) = diagrams._game_sums(n, union, meet), oracle._class_row(n, union, meet)
        return (game, gd) if sorted((L, v * ld) for L, v in game) == sorted((L, v * gd) for L, v in lin) else None

    results: dict[tuple[int, int], Row | Exception | None] = dict.fromkeys(masks)
    for jm, run in itertools.groupby(sorted(masks), key=lambda pair: pair[0]):
        try:
            rewrites = dict(ring.rewrite_rows(n, jm, ks := [km for _, km in run]))
        except Exception:  # rows of None, which no class row equals: each pair is checked again below
            rewrites = dict.fromkeys(ks)
        for km in ks:
            try:
                rewrite, class_row = rewrites.get(km, ()), agreed(jm | km, jm & km)
                row = rewrite if class_row and class_tail("diagram", n, jm, km, *class_row) == rewrite else None
            except Exception:  # checked again below, where an error is named or raised
                row = None
            try:
                results[jm, km] = _expansion_row(n, jm, km, "all") if row is None else row
            except ConsistencyError as exc:
                results[jm, km] = exc
    return [f"n={n} J={IndexSet.from_mask(n, jm)} K={IndexSet.from_mask(n, km)}: "
            f"{row if isinstance(row, Exception) else 'expansion not symmetric'}"
            for (jm, km), row in results.items() if isinstance(row, Exception) or results[km, jm] != row]


def _pair_blocks(n: int, jobs: int) -> list[list[tuple[int, int]]]:
    """The pairs of rank n in ``jobs`` blocks of whole J | K classes, so that one worker alone fills a
    class's memos, in union-mask order, each class in (J, K) order, and of about equal cost: a pair costs
    one if |J| + |K| = |J | K| + |J & K| <= n - 1, and C(u, m) * 2^(u - m) pairs have |J | K| = u and
    |J & K| = m."""
    cost = [sum(math.comb(u, m) << (u - m) for m in range(min(u + 1, n - u))) for u in range(n)]
    total, spent = sum(math.comb(n - 1, u) * cost[u] for u in range(n)), 0
    subsets = [[s for s in range(mask + 1) if s & mask == s] for mask in range(1 << (n - 1))]  # increasing
    blocks: list[list[tuple[int, int]]] = [[]]
    for union in range(1 << (n - 1)):
        if spent >= total * len(blocks) / jobs:
            blocks.append([])
        blocks[-1] += [(jm, union ^ jm | s) for jm in subsets[union] for s in subsets[jm]]  # K = (J|K) - J + s
        spent += cost[union.bit_count()]
    return blocks


def _graded_dimensions(n: int, _) -> list[str]:
    """Degree d of the quotient has dimension C(n-1, d) for every d, certified by ``presentation_failures``
    at |S| = 0..n-1; an entry that raises fails the check, named by its degree d = |S| + 2."""
    mismatch = []
    for size in range(n):
        try:
            if oracle.presentation_failures(n, size):
                mismatch = [f"n={n}: graded dimensions do not match binomials"]
        except ConsistencyError as exc:
            return mismatch + [f"n={n} d={size + 2}: {exc}"]
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
        except ConsistencyError as exc:
            failures.append(f"n={n} i={i}: {exc}")
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


@command("verify",
         option("--n-max", type=decimal, default=7, help="Largest rank checked (default: 7)."),
         option("--jobs", type=decimal, default=1, help="Worker processes for the checks (default: 1)."))
def cmd_verify(n_max: int, jobs: int) -> None:
    """Exhaustively cross-check the three engines and the supporting
    combinatorics for every rank up to --n-max."""
    if not 1 <= n_max <= MAX_VERIFY_RANK:
        raise UsageError(f"--n-max must be in [1, {MAX_VERIFY_RANK}]")
    # a process pool starts all its workers at once: refuse more than the CPUs
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise UsageError(f"--jobs must be in [1, {cpus}], the number of CPUs")
    if jobs == 1:
        failures = _verify_ranks(n_max, jobs, map)
    else:
        # imported here: multiprocessing would slow every other command's start-up
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


@command("table", RANK,
         option("--degree", type=decimal, help="Only pairs with |J| + |K| equal to this."),
         option("--J", dest="j_filter", metavar="SUBSET", help="Restrict to this J."),
         option("--K", dest="k_filter", metavar="SUBSET", help="Restrict to this K."),
         option("--format", dest="fmt", choices=("csv", "json"), default="csv", help="Output (default: csv)."),
         option("--out", type=_file, metavar="PATH", help="Output path (default: stdout)."))
def cmd_table(n: int, degree: int | None, j_filter: str | None, k_filter: str | None,
              fmt: str, out: str | None) -> None:
    """Write the structure-constant table for one rank, rows (J, K, L, d) in
    canonical order, nonzero constants only, computed and written one J at a time."""
    _check_rank(n)
    subsets = range(1 << (n - 1))
    js = [_parse_subset("--J", j_filter, n).mask] if j_filter is not None else subsets
    ks = [_parse_subset("--K", k_filter, n).mask] if k_filter is not None else subsets
    # K grouped by size, in mask order, so that --degree visits only its pairs
    by_size: dict[int, list[int]] = {}
    for km in ks:
        by_size.setdefault(km.bit_count(), []).append(km)
    admitted = (lambda jm: ks) if degree is None else (lambda jm: by_size.get(degree - jm.bit_count(), []))
    count = sum(len(admitted(jm)) for jm in js)
    if count > MAX_TABLE_PAIRS:
        raise Refused(f"table admits {count} (J, K) pairs, more than the cap of {MAX_TABLE_PAIRS}")
    blocks = ((jm, ring.rewrite_rows(n, jm, admitted(jm))) for jm in js)
    if out is None:
        _write_table(sys.stdout, n, fmt, blocks)
        return
    # written beside --out and moved over it only once complete, so that a
    # failing table leaves neither a partial file nor a clobbered one
    partial = f"{out}.{os.getpid()}.tmp"
    fh = open(partial, "x")
    try:
        with fh:
            written = _write_table(fh, n, fmt, blocks)
        os.replace(partial, out)
    except BaseException:
        os.remove(partial)
        raise
    print(f"wrote {written} rows to {out}")


def _write_table(fh, n: int, fmt: str, blocks) -> int:
    """Write the (J, (K, row) pairs) blocks of a rank-n table to ``fh``, a line (J, K, L, d) per (L, d), and
    return the number of lines.  A CSV block is written whole, also when one of its pairs raises."""
    if fmt == "csv":
        fh.write("n,J,K,L,d\n")
        # writerow returns what its file's write returns: here, the text itself
        writer = csv.writer(argparse.Namespace(write=str), lineterminator=",")
        cell = functools.cache(lambda m: writer.writerow([IndexSet.from_mask(n, m).format()]))
        count = 0
        for J, rows in blocks:
            lines, head_J = [], f"{n},{cell(J)}"
            try:
                for K, row in rows:
                    head = head_J + cell(K)
                    for L, d in row:
                        lines.append(f"{head}{cell(L)}{d}\n")
            finally:
                if lines:
                    fh.write("".join(lines))
            count += len(lines)
        return count
    members = functools.cache(lambda m: IndexSet.from_mask(n, m).as_tuple())
    json_rows = [{"J": members(J), "K": members(K), "L": members(L), "d": str(d)}
                 for J, rows in blocks for K, row in rows for L, d in row]
    fh.write(json.dumps({"n": n, "rows": json_rows}) + "\n")
    return len(json_rows)


@command("group", RANK, SUBSET_J)
def cmd_group(n: int, j_text: str) -> None:
    """Print the combinatorial data attached to one subset."""
    _check_rank(n)
    J = _parse_subset("-J", j_text, n)
    dec = decompose(J)
    wj = permutations.longest_wj(J)
    print(f"J = {J.format()}  (rank n = {n})")
    print("components = " + (" ".join(f"[{lo}..{hi}]" for lo, hi in dec.runs) or "(empty)"))
    print(f"m_J = {dec.m_factor}")
    print(f"factor ranks = {factor_ranks(J)}")
    print(f"h_J = {hessenberg_function(J)}")
    print(f"w_J = {permutations.format_one_line(wj)}   length {permutations.length(wj)}")
    print(f"v_J = {permutations.format_one_line(permutations.subword_vj(J))}")


def main(argv: list[str] | None = None) -> int:
    """Run the command line ``argv`` (default: ``sys.argv[1:]``) and return its exit code: 0, 1 or 2."""
    try:
        options = vars(cli.parse_args(argv))
        cli.commands[options.pop("command")].callback(**options)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
    except SystemExit as exc:  # --help, printed by argparse
        return exc.code
    except UsageError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout closed early: at the null device, the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def entry() -> None:
    """The ``petring`` script: exit with ``main``'s code."""
    sys.exit(main())


if __name__ == "__main__":
    entry()
