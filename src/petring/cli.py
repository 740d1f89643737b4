"""Command-line surface: expansions, diagram listings, exhaustive
verification, tables, and group data.

`table` refuses, before computing, filters that admit more than
MAX_TABLE_PAIRS (J, K) pairs; `expand --cached` scans a CSV table for the
raw line prefix of its pair and stops after that pair's block.  `verify`
gives each worker whole J | K classes of pairs, cut by estimated cost, and
gets back failure lines only; a check that raises fails, and the later
checks still run.  A pair costs three row calls over memos that persist in
the worker (the rewrite's transition table and fold prefixes, the games,
the normal forms and their exponent tuples) and one comparison; the
disagreement message is built only when the rows differ.  Engines give
their expansions as checked (L mask, d) rows sorted by mask, which `table`
writes as they come and `expand` prints in that order; subsets are
formatted only here.

Exit codes: 0 on success, 1 on a usage error or a refused request, 2 on a
mathematical consistency failure (engine disagreement or a failed
verification check).
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
import sys

import click

from .diagrams import diagram_row, enumerate_diagrams, render_ascii, structure_constant, weight
from .errors import ConsistencyError, PresentationError, Row, constants
from .intervals import (
    IndexSet,
    all_index_sets,
    decompose,
    factor_ranks,
    hessenberg_function,
)
from .oracle import Monomial, linalg_row, normal_form, quotient_dimension
from .permutations import (
    bruhat_leq,
    format_one_line,
    length,
    longest_wj,
    simple_transposition,
    subword_vj,
)
from .ring import integral, monomial, multiply, rewrite_row, structure_constants_rewrite_pairs, unit

__all__ = ["cli", "main", "entry"]

MAX_QUERY_RANK = 16
MAX_VERIFY_RANK = 8
MAX_TABLE_PAIRS = 4**10  # a full n = 11 table; `table` refuses requests that admit more pairs

METHODS = ("diagram", "rewrite", "linalg", "all")


def _expansion_row(n: int, J: int, K: int, method: str) -> Row:
    """The checked row of one engine, or of all three with an exact-agreement
    check; a disagreement names the first L at which the rows differ."""
    if method == "all":
        diagram, rewrite, linalg = diagram_row(n, J, K), rewrite_row(n, J, K), linalg_row(n, J, K)
        if diagram == rewrite == linalg:
            return diagram
        rows = {"diagram": diagram, "rewrite": rewrite, "linalg": linalg}
    elif method in METHODS:
        return {"diagram": diagram_row, "rewrite": rewrite_row, "linalg": linalg_row}[method](n, J, K)
    else:
        raise ValueError(f"unknown method {method!r}")
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
        raise click.UsageError(f"bad {ctx_name}: {exc}") from None


def _check_rank(n: int) -> None:
    if not 1 <= n <= MAX_QUERY_RANK:
        raise click.UsageError(f"rank must be in [1, {MAX_QUERY_RANK}], got {n}")


@click.group()
def cli() -> None:
    """Exact structure constants for the Peterson cohomology basis."""


@cli.command("expand")
@click.option("-n", "--rank", "n", type=int, required=True, help="Ambient rank.")
@click.option("-J", "j_text", default="-", metavar="SUBSET", help='First subset, e.g. "1,3,5" ("-" = empty).')
@click.option("-K", "k_text", default="-", metavar="SUBSET", help="Second subset.")
@click.option("--method", type=click.Choice(METHODS), default="all", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--cached", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Read the expansion from a table file written by `table` instead of computing.")
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
        click.echo(json.dumps(record, separators=(", ", ": ")))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "J", "K", "method", "L", "coeff"])
    writer.writerows([n, J.format(), K.format(), method, IndexSet.from_mask(n, L).format(), d] for L, d in row)


def _lookup_cached(path: str, n: int, J: IndexSet, K: IndexSet) -> Row:
    """The rows for (J, K) in a table file, through the checked tail of the
    engines; a file that does not parse is refused, and so is a pair with
    two rows on one L."""
    try:
        pairs = [(IndexSet.parse(L, n).mask, int(d)) for L, d in _read_table(path, n, J, K)]
    except (ValueError, KeyError, TypeError) as exc:
        raise click.ClickException(f"cache {path} is malformed: {type(exc).__name__}: {exc}") from None
    masks = sorted(L for L, _ in pairs)
    repeated = [L for L, M in zip(masks, masks[1:]) if L == M]
    if repeated:
        raise ConsistencyError(f"cache {path} has two rows for J={J.format()} K={K.format()} "
                               f"L={IndexSet.from_mask(n, repeated[0]).format()}")
    out = constants("cached", n, J.mask, K.mask, pairs, 1)
    # a table holds only nonzero constants, and the product is nonzero exactly
    # when |J| + |K| <= n - 1: such a pair without rows was left out by filters
    if not out and len(J) + len(K) <= n - 1:
        raise click.ClickException(f"cache {path} has no rows for J={J.format()} K={K.format()}, a nonzero product")
    return out


def _read_table(path: str, n: int, J: IndexSet, K: IndexSet) -> list[list[str]]:
    """The (L, d) fields of the rows for (J, K) in a table file of rank n.
    A CSV table is scanned for the raw line prefix "n,J,K,", written by the
    same csv.writer as the table so that the quoting matches; the scan checks
    the rank of every line it reads and stops after the matching block, or
    after the block of J's rows if none matches.  It trusts the canonical
    row order that `table` writes: in a file whose rows for one pair are not
    contiguous, it finds only the first block (a check would read to the
    end of the file).  A JSON table is loaded whole."""
    if path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        if data["n"] != n:
            raise click.UsageError(f"cache {path} is for rank {data['n']}, not {n}")
        key = [list(J.as_tuple()), list(K.as_tuple())]
        # d as its text, as in a CSV table, so that int() refuses 2.5 or true
        return [[",".join(map(str, r["L"])) or "-", str(r["d"])] for r in data["rows"] if [r["J"], r["K"]] == key]
    buf = io.StringIO()
    csv.writer(buf, lineterminator=",\n").writerows([[n, J.format()], [n, J.format(), K.format()]])
    rank, (j_prefix, prefix) = f"{n},", buf.getvalue().splitlines()
    rows: list[list[str]] = []
    in_J = False
    with open(path, newline="") as fh:
        next(fh, None)  # the header
        for line in fh:
            if not line.startswith(rank):
                raise click.UsageError(f"cache {path} is for rank {line.split(',', 1)[0]}, not {n}")
            if line.startswith(j_prefix):
                in_J = True
                if line.startswith(prefix):
                    rows.append(next(csv.reader([line[len(prefix):]])))
                elif rows:
                    break
            elif in_J:
                break
    return rows


@cli.command("diagrams")
@click.option("-n", "--rank", "n", type=int, required=True)
@click.option("-J", "j_text", default="-", metavar="SUBSET")
@click.option("-K", "k_text", default="-", metavar="SUBSET")
@click.option("-L", "l_text", required=True, metavar="SUBSET")
def cmd_diagrams(n: int, j_text: str, k_text: str, l_text: str) -> None:
    """List and render the left-right diagrams for one (J, K, L) triple."""
    _check_rank(n)
    J = _parse_subset("-J", j_text, n)
    K = _parse_subset("-K", k_text, n)
    L = _parse_subset("-L", l_text, n)
    found = enumerate_diagrams(J, K, L)
    if not found:
        click.echo("no diagrams; d = 0")
        return
    for idx, P in enumerate(found, start=1):
        click.echo(f"diagram {idx} of {len(found)}  (weight {weight(P)})")
        click.echo(render_ascii(P))
        click.echo("")
    click.echo(f"d = {structure_constant(J, K, L)}")


def _verify_chunk(n: int, masks: list[tuple[int, int]]) -> list[str]:
    """Worker for `verify`: three-engine expansion for a block of (J, K)
    pairs given by their subset masks, holding each pair's transpose.  The
    pairs are expanded in (J, K) order, so that the rewrite folds each J
    once over a shared prefix memo.  Returns the failure lines in block
    order: a pair's error, or a pair whose expansion differs from its
    transpose's."""
    results: dict[tuple[int, int], Row | Exception | None] = dict.fromkeys(masks)
    for jm, km in sorted(masks):
        try:
            results[jm, km] = _expansion_row(n, jm, km, "all")
        except (ConsistencyError, PresentationError) as exc:
            results[jm, km] = exc
    failures = []
    for (jm, km), row in results.items():
        if isinstance(row, Exception):
            problem = row
        elif results[km, jm] != row:
            problem = "expansion not symmetric"
        else:
            continue
        failures.append(f"n={n} J={IndexSet.from_mask(n, jm)} K={IndexSet.from_mask(n, km)}: {problem}")
    return failures


@cli.command("verify")
@click.option("--n-max", type=int, default=7, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True, help="Worker processes for the pair sweep.")
def cmd_verify(n_max: int, jobs: int) -> None:
    """Exhaustively cross-check the three engines and the supporting
    combinatorics for every rank up to --n-max."""
    if not 1 <= n_max <= MAX_VERIFY_RANK:
        raise click.UsageError(f"--n-max must be in [1, {MAX_VERIFY_RANK}]")
    # a process pool starts all its workers at once: refuse more than the CPUs
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise click.UsageError(f"--jobs must be in [1, {cpus}], the number of CPUs")
    if jobs == 1:
        failures = _verify_ranks(n_max, jobs, map)
    else:
        # imported here: multiprocessing would slow every other command's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            failures = _verify_ranks(n_max, jobs, pool.map)
    if failures:
        for line in failures:
            click.echo(f"FAIL {line}", err=True)
        raise ConsistencyError(f"{len(failures)} verification check(s) failed")
    click.echo("all checks passed")


def _verify_ranks(n_max: int, jobs: int, sweep) -> list[str]:
    """The checks of `verify` for ranks 1..n_max.  Each rank's pair sweep is
    cut into ``jobs`` blocks of whole J | K classes, contiguous in
    union-mask order and of about equal cost, so that one worker alone
    fills the linalg and game memos, both keyed by (J | K, J & K).  A pair
    costs one if |J| + |K| <= n - 1, when it reduces a normal form and plays
    a game that does not die, and nothing otherwise.  With the graded
    dimensions, every rank's blocks are mapped by ``sweep`` before any
    result is read.  Prints one line per check and returns the failure
    lines; a check that raises fails, and the later checks still run."""
    failures: list[str] = []
    mapped = []
    for n in range(1, n_max + 1):
        pairs = sorted(itertools.product(range(1 << (n - 1)), repeat=2), key=lambda p: p[0] | p[1])
        classes = [list(union_class) for _, union_class in itertools.groupby(pairs, key=lambda p: p[0] | p[1])]
        costs = [sum(jm.bit_count() + km.bit_count() < n for jm, km in union_class) for union_class in classes]
        total, spent = sum(costs), 0
        blocks: list[list[tuple[int, int]]] = [[]]
        for union_class, cost in zip(classes, costs):
            if spent >= total * len(blocks) / jobs:
                blocks.append([])
            blocks[-1] += union_class
            spent += cost
        mapped.append((n, sweep(_verify_chunk, [n] * len(blocks), blocks),
                       sweep(quotient_dimension, [n] * (n + 2), range(n + 2))))
    for n, chunks, dims in mapped:
        for chunk in chunks:
            failures += chunk
        click.echo(f"n={n}: {4 ** (n - 1)} (J,K) pairs cross-checked over three engines")

        graded: list[str] = []
        results = iter(dims)
        for d in range(n + 2):
            try:
                dim = next(results)
            except PresentationError as exc:
                graded.append(f"n={n} d={d}: {exc}")
                break
            if dim != math.comb(n - 1, d) and not graded:
                graded.append(f"n={n}: graded dimensions do not match binomials")
        failures += graded
        click.echo(f"n={n}: graded dimensions 0..{n + 1} {'FAIL' if graded else 'OK'}")

        if n <= 6:
            sets = list(all_index_sets(n))
            lemma_ok = all(
                bruhat_leq(simple_transposition(n, i), longest_wj(J)) == (i in J)
                for J in sets
                for i in range(1, n)
            ) and all(
                bruhat_leq(longest_wj(Jp), longest_wj(J)) == Jp.issubset(J)
                for J in sets
                for Jp in sets
            )
            if not lemma_ok:
                failures.append(f"n={n}: Bruhat comparisons disagree with the subset criteria")
            click.echo(f"n={n}: Bruhat subset criteria {'OK' if lemma_ok else 'FAIL'}")

        if n >= 2:
            top = []
            for i in range(1, n):
                # the integral of g_i^(n-1) by the run rule, by the relations,
                # and as the Eulerian number A(n-1, i-1)
                try:
                    by_rule = integral(functools.reduce(multiply, [monomial(IndexSet.of(n, [i]))] * (n - 1), unit(n)))
                    nf = normal_form(Monomial.from_multiset(n, {i: n - 1}))
                except (ConsistencyError, PresentationError) as exc:
                    top.append(f"n={n} i={i}: {exc}")
                    continue
                by_relations = math.factorial(n - 1) * nf.get(IndexSet.full(n), 0)
                eulerian = sum((-1) ** j * math.comb(n, j) * (i - j) ** (n - 1) for j in range(i))
                if not by_rule == by_relations == eulerian:
                    top.append(f"n={n} i={i}: integral of g_{i}^{n - 1} is {by_rule} by the run rule, "
                               f"{by_relations} by the relations, Eulerian number {eulerian}")
            failures += top
            click.echo(f"n={n}: top-degree evaluation {'FAIL' if top else 'OK'}")
    return failures


@cli.command("table")
@click.option("-n", "--rank", "n", type=int, required=True)
@click.option("--degree", type=int, default=None, help="Only pairs with |J| + |K| equal to this.")
@click.option("--J", "j_filter", default=None, metavar="SUBSET", help="Restrict to this J.")
@click.option("--K", "k_filter", default=None, metavar="SUBSET", help="Restrict to this K.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Output path (default: stdout).")
def cmd_table(n: int, degree: int | None, j_filter: str | None, k_filter: str | None,
              fmt: str, out: str | None) -> None:
    """Write the structure-constant table for one rank, rows (J, K, L, d) in
    canonical order, nonzero constants only."""
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
        raise click.ClickException(f"table admits {count} (J, K) pairs, more than the cap of {MAX_TABLE_PAIRS}")
    pairs = ((jm, km) for jm in js for km in admitted(jm))
    rows = ((jm, km, L, d) for jm, km, row in structure_constants_rewrite_pairs(n, pairs) for L, d in row)
    if out is None:
        _write_table(sys.stdout, n, fmt, rows)
        return
    # written beside --out and moved over it only once complete, so that a
    # failing table leaves neither a partial file nor a clobbered one
    partial = f"{out}.{os.getpid()}.tmp"
    fh = open(partial, "x")
    try:
        with fh:
            written = _write_table(fh, n, fmt, rows)
        os.replace(partial, out)
    except BaseException:
        os.remove(partial)
        raise
    click.echo(f"wrote {written} rows to {out}")


def _write_table(fh, n: int, fmt: str, rows) -> int:
    """Write the (J, K, L, d) mask rows of a rank-n table to ``fh`` and
    return their number.  CSV rows are written as they come; a JSON table is
    built whole, then written with a final newline."""
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "J", "K", "L", "d"])
        name = functools.cache(lambda m: IndexSet.from_mask(n, m).format())
        count = 0
        for J, K, L, d in rows:
            writer.writerow([n, name(J), name(K), name(L), str(d)])
            count += 1
        return count
    members = functools.cache(lambda m: IndexSet.from_mask(n, m).as_tuple())
    json_rows = [{"J": members(J), "K": members(K), "L": members(L), "d": str(d)} for J, K, L, d in rows]
    fh.write(json.dumps({"n": n, "rows": json_rows}, separators=(", ", ": ")) + "\n")
    return len(json_rows)


@cli.command("group")
@click.option("-n", "--rank", "n", type=int, required=True)
@click.option("-J", "j_text", default="-", metavar="SUBSET")
def cmd_group(n: int, j_text: str) -> None:
    """Print the combinatorial data attached to one subset."""
    _check_rank(n)
    J = _parse_subset("-J", j_text, n)
    dec = decompose(J)
    wj = longest_wj(J)
    click.echo(f"J = {J.format()}  (rank n = {n})")
    click.echo("components = " + (" ".join(f"[{lo}..{hi}]" for lo, hi in dec.runs) or "(empty)"))
    click.echo(f"m_J = {dec.m_factor}")
    click.echo(f"factor ranks = {factor_ranks(J)}")
    click.echo(f"h_J = {hessenberg_function(J)}")
    click.echo(f"w_J = {format_one_line(wj)}   length {length(wj)}")
    click.echo(f"v_J = {format_one_line(subword_vj(J))}")


def main(argv: list[str] | None = None) -> int:
    """Driver enforcing the exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (ConsistencyError, PresentationError) as exc:
        click.echo(f"consistency failure: {exc}", err=True)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())
