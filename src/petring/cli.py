"""The ``petring`` command line: one argparse parser, ``cli``, with the subcommands ``expand``, ``diagrams``,
``verify``, ``table`` and ``group`` in ``cli.commands``, each with its function's docstring as help.  Importing it
runs ``errors`` and ``intervals``, and no ``typing``, ``csv``, ``json`` or ``fractions``.  Each command runs besides
only the modules it calls: ``expand`` the engines ``diagrams``, ``oracle`` and ``ring``, and none with
``--cached``; ``diagrams`` ``diagrams`` and ``listings``; ``group`` ``permutations``; ``table`` ``ring`` and
``table``; ``verify`` the engines, ``permutations`` and ``verify``.  Only a JSON table, read or written, needs ``json``.

A command line is checked once, before any work: argparse checks the form of each option, ``main`` the rank and then
each subset option, in the command's option order, and ``verify.run`` makes every ``verify`` refusal.

Exit codes: 0 on success; 1 on a usage error, a refused request or an OSError, silent where stdout failed; 2 on a
ConsistencyError, such as engines that disagree or a failed `verify` check.  ``entry`` flushes both streams, as
``os._exit`` does not, and ``verify.run`` stdout before its FAIL lines, which thus follow the check lines in one file.
"""

import argparse
import functools
import gc
import os
import sys

from . import diagrams, listings, oracle, permutations, ring, table, verify
from .errors import ConsistencyError, Row, constants
from .intervals import IndexSet, decimal, decompose, factor_ranks, hessenberg_function

__all__ = ["cli", "main", "entry"]

MAX_QUERY_RANK = 16
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
    options given by :func:`option`; its docstring is the help.  Its options
    of metavar SUBSET are its subparser's ``subsets``, in option order."""

    def register(fn):
        parser = cli.commands[name] = _subparsers.add_parser(
            name, help=fn.__doc__.split(".")[0] + ".", description=fn.__doc__, allow_abbrev=False)
        parser.callback = fn
        parser.subsets = [(flags[0], kwargs["dest"]) for flags, kwargs in options if kwargs.get("metavar") == "SUBSET"]
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
SUBSET_J = option("-J", dest="J", default="-", metavar="SUBSET", help='First subset, e.g. "1,3,5" ("-" = empty).')
SUBSET_K = option("-K", dest="K", default="-", metavar="SUBSET", help="Second subset.")


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


@command("expand", RANK, SUBSET_J, SUBSET_K,
         option("--method", choices=(*ENGINES, "all"), default="all", help="Engine (default: all)."),
         option("--format", dest="fmt", choices=("json", "csv"), default="json", help="Output (default: json)."),
         option("--cached", type=lambda path: _file(path, must_exist=True), metavar="PATH",
                help="Read the expansion from a table file written by `table` instead of computing."))
def cmd_expand(n: int, J: IndexSet, K: IndexSet, method: str, fmt: str, cached: str | None) -> None:
    """Expand a product of two basis classes."""
    if cached is not None:
        row = _lookup_cached(cached, n, J, K)
        method = "cached"
    else:
        row = _expansion_row(n, J.mask, K.mask, method)
    if fmt == "json":  # the text of json.dumps: int lists print as Python prints them, and each string is plain ASCII
        terms = ", ".join(f'{{"L": {list(IndexSet.from_mask(n, L).as_tuple())}, "coeff": "{d}"}}' for L, d in row)
        print(f'{{"n": {n}, "J": {list(J.as_tuple())}, "K": {list(K.as_tuple())}, "method": "{method}", '
              f'"terms": [{terms}]}}')
        return
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "J", "K", "method", "L", "coeff"])
    writer.writerows([n, J.format(), K.format(), method, IndexSet.from_mask(n, L).format(), d] for L, d in row)


def _lookup_cached(path: str, n: int, J: IndexSet, K: IndexSet) -> Row:
    """The checked row of (J, K) in a table file: Refused if the file does not parse or has no rows for a nonzero
    product, ConsistencyError for two rows on one L, a row with d = 0 or a row that fails the checked tail."""
    try:
        pairs = [(IndexSet.parse(L, n).mask, decimal(d)) for L, d in _read_table(path, n, J, K)]
    except (ValueError, KeyError, TypeError) as exc:
        raise Refused(f"cache {path} is malformed: {type(exc).__name__}: {exc}") from None
    masks = sorted(L for L, _ in pairs)
    if repeated := [L for L, M in zip(masks, masks[1:]) if L == M]:
        raise ConsistencyError(f"cache {path} has two rows for J={J.format()} K={K.format()} "
                               f"L={IndexSet.from_mask(n, repeated[0]).format()}")
    # a table holds only nonzero constants, which the checked tail would drop
    if zero := [L for L, d in pairs if not d]:
        raise ConsistencyError(f"cache {path} has a row with d = 0 for J={J.format()} K={K.format()} "
                               f"L={IndexSet.from_mask(n, zero[0]).format()}")
    out = constants("cached", n, J.mask, K.mask, pairs, 1)
    # the product is nonzero exactly when |J| + |K| <= n - 1: such a pair without rows was left out by filters
    if not out and len(J) + len(K) <= n - 1:
        raise Refused(f"cache {path} has no rows for J={J.format()} K={K.format()}, a nonzero product")
    return out


def _read_table(path: str, n: int, J: IndexSet, K: IndexSet) -> list[list[str]]:
    """The (L, d) cells of the rows for (J, K) in a table file, read whole if JSON (named *.json or whose first
    non-whitespace byte is "{"); Refused if a line read is of another rank.  A CSV table is bisected over byte
    offsets for the pair's first line, in the (J mask, K mask) order that `table` writes, so in a file out of that
    order it can find part of a pair's rows, or none: a documented limit, as only a scan to the end could see it."""
    with open(path, "rb") as fh:  # past the whitespace that JSON allows before a value
        first = next((c for c in iter(lambda: fh.read(1), b"") if c not in b" \t\n\r"), b"")
    if path.endswith(".json") or first == b"{":
        import json
        with open(path) as fh:
            data = json.load(fh)
        if type(data["n"]) is not int:  # "3", true or 3.0, which a rank compare would misread
            raise TypeError(f"n is {json.dumps(data['n'])}, not an integer")
        if data["n"] != n:
            raise Refused(f"cache {path} is for rank {data['n']}, not {n}")
        key = [list(J.as_tuple()), list(K.as_tuple())]
        # d as its text, as in a CSV table, so that decimal refuses 2.5 or true
        return [[",".join(map(str, r["L"])) or "-", str(r["d"])] for r in data["rows"] if [r["J"], r["K"]] == key]
    import csv

    # the pair's "n,J,K," prefix, quoted as the table's csv.writer quotes it: writerow returns what write does
    written = csv.writer(argparse.Namespace(write=str), lineterminator="\n").writerow([n, J.format(), K.format()])
    rank, prefix, target = f"{n},", written[:-1] + ",", (J.mask, K.mask)

    def decoded(line: bytes) -> str:
        text = line.decode()
        if not text.startswith(rank):
            raise Refused(f"cache {path} is for rank {text.split(',', 1)[0]}, not {n}")
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
         option("-L", dest="L", required=True, metavar="SUBSET", help="The subset of the product's term."))
def cmd_diagrams(n: int, J: IndexSet, K: IndexSet, L: IndexSet) -> None:
    """List and render the left-right diagrams for one (J, K, L) triple."""
    found = listings.enumerate_diagrams(J, K, L)
    if not found:
        print("no diagrams; d = 0")
        return
    for idx, P in enumerate(found, start=1):
        print(f"diagram {idx} of {len(found)}  (weight {listings.weight(P)})")
        print(listings.render_ascii(P))
        print("")
    print(f"d = {listings.structure_constant(J, K, L)}")


@command("verify",
         option("--n-max", type=decimal, default=7, help="Largest rank checked (default: 7)."),
         option("--jobs", type=decimal, default=1, help="Worker processes for the checks (default: 1)."))
def cmd_verify(n_max: int, jobs: int) -> None:
    """Exhaustively cross-check the three engines and the supporting
    combinatorics for every rank up to --n-max."""
    verify.run(n_max, jobs)


@command("table", RANK,
         option("--degree", type=decimal, help="Only pairs with |J| + |K| equal to this."),
         option("--J", dest="J", metavar="SUBSET", help="Restrict to this J."),
         option("--K", dest="K", metavar="SUBSET", help="Restrict to this K."),
         option("--format", dest="fmt", choices=("csv", "json"), default="csv", help="Output (default: csv)."),
         option("--out", type=_file, metavar="PATH", help="Output path (default: stdout)."))
def cmd_table(n: int, degree: int | None, J: IndexSet | None, K: IndexSet | None,
              fmt: str, out: str | None) -> None:
    """Write the structure-constant table for one rank, rows (J, K, L, d) in
    canonical order, nonzero constants only, computed and written one J at a time."""
    subsets = range(1 << (n - 1))
    js = [J.mask] if J is not None else subsets
    ks = [K.mask] if K is not None else subsets
    table.run(n, degree, js, ks, fmt, out)


@command("group", RANK, SUBSET_J)
def cmd_group(n: int, J: IndexSet) -> None:
    """Print the combinatorial data attached to one subset."""
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
        parser = cli.commands[options.pop("command")]
        if "n" in options and not 1 <= options["n"] <= MAX_QUERY_RANK:
            raise UsageError(f"rank must be in [1, {MAX_QUERY_RANK}], got {options['n']}")
        for flag, dest in parser.subsets:
            try:
                options[dest] = None if options[dest] is None else IndexSet.parse(options[dest], options["n"])
            except ValueError as exc:
                raise UsageError(f"bad {flag}: {exc}") from None
        parser.callback(**options)
    except SystemExit as exc:  # --help, printed by argparse
        return exc.code
    except UsageError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # silent where stdout failed: a closed pipe, or a fd 1 that fails even an empty write,
        try:  # as a full device or a closed descriptor does; else one line, if stderr takes it
            if not isinstance(exc, BrokenPipeError) and not os.write(1, b""):
                print(f"Error: {exc}", file=sys.stderr)
        except OSError:
            pass
        return 1
    return 0


def entry() -> None:
    """The ``petring`` script: ``main`` with rare collections, as its memos hold many containers and a run makes
    few cycles, then ``os._exit`` with its code, or 1 if a stream does not flush: the memos are not freed."""
    if sys.stdout is None:  # fd 1 closed at start: exit 1 before any work, as when it closes early
        os._exit(1)
    gc.set_threshold(100_000, 50, 50)
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    entry()
