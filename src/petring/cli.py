"""The ``petring`` command line: the subcommands ``expand``, ``diagrams``, ``verify``, ``table`` and ``group`` in
``COMMANDS``, each with its options and its function's docstring as help.  Importing it runs ``errors`` and
``intervals``, and no ``argparse``, ``typing``, ``csv`` or ``fractions``; no module imports ``json``.  Each command
runs besides only the modules it calls: ``expand`` the engines ``diagrams``, ``oracle`` and ``ring``, and ``ring``
alone with ``--cached``; ``diagrams`` ``diagrams`` and ``listings``; ``group`` ``permutations``; ``table`` ``ring``
and ``table``; ``verify`` the engines, ``permutations`` and ``verify``.

A command line is checked once, before any work: ``_read`` reads the form COMMAND FLAG VALUE ..., and the argparse
parser ``cli``, built from ``COMMANDS`` on first use, every other line and ``--help``; then ``main`` checks the rank
and each subset option, in the command's option order, and ``verify.run`` makes every ``verify`` refusal.

Exit codes: 0 on success; 1 on a usage error, a refused request or an OSError, silent where stdout failed; 2 on a
ConsistencyError, such as engines that disagree or a failed `verify` check.  ``entry`` flushes both streams, as
``os._exit`` does not, and ``verify.run`` stdout before its FAIL lines, which thus follow the check lines in one file.
"""

import gc
import os
import sys
import types

from . import diagrams, listings, oracle, permutations, ring, table, verify
from .errors import ConsistencyError, Row
from .intervals import IndexSet, decimal, decompose, factor_ranks, format_mask, hessenberg_function

__all__ = ["cli", "main", "entry"]

MAX_QUERY_RANK = 16
MAX_TABLE_PAIRS = 4**10  # a full n = 11 table; `table` refuses requests that admit more pairs

ENGINES = {"diagram": (diagrams, "diagram_row"), "rewrite": (ring, "rewrite_row"), "linalg": (oracle, "linalg_row")}
COMMANDS = {}  # name: the subcommand, whose ``callback`` main runs


class UsageError(Exception):
    """A bad command line: exit 1, with "error: <message>" on stderr."""

    prefix = "error"


class Refused(UsageError):
    """A request refused for its input (a table over the cap, a cache file
    that cannot serve it): exit 1, with "Error: <message>" on stderr."""

    prefix = "Error"


def command(name: str, *options: tuple[tuple[str, ...], dict]):
    """Register the decorated function as the subcommand ``name``, with its
    options given by :func:`option`; its docstring is the help.  Its options
    of metavar SUBSET are its ``subsets``, in option order."""

    def register(fn):
        COMMANDS[name] = types.SimpleNamespace(callback=fn, options=options, subsets=[
            (flags[0], kwargs["dest"]) for flags, kwargs in options if kwargs.get("metavar") == "SUBSET"])
        return fn

    return register


def option(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


def __getattr__(name: str):
    """``cli``: the argparse parser of ``COMMANDS``, kept as its ``commands``, built on the first read of it."""
    if name != "cli":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):  # in place of argparse's usage message and exit 2
            raise UsageError(message)

    parser = Parser(prog="petring", description="Exact structure constants for the Peterson cohomology basis.",
                    allow_abbrev=False)
    parser.commands = COMMANDS  # the registry that main runs, so a callback wrapped through it is the one called
    subparsers = parser.add_subparsers(dest="command", required=True)
    for key, entry in COMMANDS.items():
        doc = entry.callback.__doc__
        sub = subparsers.add_parser(key, help=doc.split(".")[0] + ".", description=doc, allow_abbrev=False)
        for flags, kwargs in entry.options:
            sub.add_argument(*flags, **kwargs)
    return globals().setdefault("cli", parser)


def _read(argv: list[str]) -> dict | None:
    """The options of a command line of the form COMMAND FLAG VALUE ..., as argparse reads them: each flag written
    whole, each value of its type and choices and not starting with "-" unless it is "-", the last of a flag written
    twice, and every required option given; else None, for argparse to read, refuse or answer with help."""
    if len(argv) % 2 == 0 or (cmd := COMMANDS.get(argv[0])) is None:
        return None
    given, read = {flag: kwargs for flags, kwargs in cmd.options for flag in flags}, {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if (kwargs := given.get(flag)) is None or value.startswith("-") and value != "-":
            return None
        try:
            read[kwargs["dest"]] = value = kwargs.get("type", str)(value)
        except Exception:  # any: argparse calls the type again, and words or raises what it raises
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
    return None if any(kwargs.get("required") and kwargs["dest"] not in read for _, kwargs in cmd.options) else \
        {"command": argv[0], **{kwargs["dest"]: kwargs.get("default") for _, kwargs in cmd.options}, **read}


def _file(path: str, must_exist: bool = False) -> str:
    """The argparse type of ``--out`` and, with ``must_exist``, of ``--cached``: ``path`` itself if it is
    not empty, its directory exists, and it names a regular file or, for ``--out``, nothing yet; the file
    must be readable (``--cached``) or writable with its directory (``--out``).  Else ArgumentTypeError."""
    if path and not os.path.exists(path):
        if must_exist or not os.path.isdir(os.path.dirname(path) or "."):
            raise _type_error(f"{'file' if must_exist else 'directory of'} {path!r} does not exist")
    elif not os.path.isfile(path):
        raise _type_error(f"{path!r} is not a regular file")
    elif not os.access(path, os.R_OK if must_exist else os.W_OK):
        raise _type_error(f"{path!r} is not {'readable' if must_exist else 'writable'}")
    if not (must_exist or os.access(os.path.dirname(path) or ".", os.W_OK)):
        raise _type_error(f"directory of {path!r} is not writable")
    return path


def _type_error(message: str) -> Exception:
    import argparse  # here, and in the parser: a path that _file accepts loads none of it

    return argparse.ArgumentTypeError(message)


RANK = option("-n", "--rank", dest="n", type=decimal, required=True, help="Ambient rank.")
SUBSET_J = option("-J", dest="J", default="-", metavar="SUBSET", help='First subset, e.g. "1,3,5" ("-" = empty).')
SUBSET_K = option("-K", dest="K", default="-", metavar="SUBSET", help="Second subset.")


def _expansion_row(n: int, J: int, K: int, method: str) -> Row:
    """The checked row of one engine, or of all three if they agree exactly, else ``_check_rows_agree``'s error."""
    if method != "all":
        return getattr(*ENGINES[method])(n, J, K)
    rows = {name: getattr(module, attr)(n, J, K) for name, (module, attr) in ENGINES.items()}
    if len(set(rows.values())) > 1:
        _check_rows_agree("engines disagree", J, K, {name: dict(row) for name, row in rows.items()})
    return rows["diagram"]


def _check_rows_agree(what: str, J: int, K: int, rows: dict[str, dict[int, int]]) -> None:
    """ConsistencyError unless the {L mask: d} rows for the masks J and K are equal, in one line: ``what``, the
    first L at which they differ, each row's d there, or "no term" where it has none, and each row whole."""
    if differ := [L for d in rows.values() for L in d if len({e.get(L) for e in rows.values()}) > 1]:
        first = min(differ)
        raise ConsistencyError(
            f"{what} for J={format_mask(J)}, K={format_mask(K)}, first at L={format_mask(first)}: "
            + ", ".join(f"{e} d={d[first]}" if first in d else f"{e} no term" for e, d in rows.items()) + "; "
            + " ".join(f"{e}={ {format_mask(L): c for L, c in d.items()} }" for e, d in rows.items()))


@command("expand", RANK, SUBSET_J, SUBSET_K,
         option("--method", dest="method", choices=(*ENGINES, "all"), default="all", help="Engine (default: all)."),
         option("--format", dest="fmt", choices=("json", "csv"), default="json", help="Output (default: json)."),
         option("--cached", dest="cached", type=lambda path: _file(path, must_exist=True), metavar="PATH",
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
    writer.writerows([n, J.format(), K.format(), method, format_mask(L), d] for L, d in row)


def _lookup_cached(path: str, n: int, J: IndexSet, K: IndexSet) -> Row:
    """The rewrite's row of (J, K) if the pair's rows in a table file equal it: Refused if the file does not parse or
    has no rows for a nonzero product, else ConsistencyError for any other difference."""
    try:
        pairs = [(IndexSet.parse(L, n).mask, decimal(d)) for L, d in _read_table(path, n, J, K)]
    except ValueError as exc:  # UnicodeDecodeError included
        raise Refused(f"cache {path} is malformed: {type(exc).__name__}: {exc}") from None
    if (row := ring.rewrite_row(n, J.mask, K.mask)) and not pairs:  # a pair that filters left out
        raise Refused(f"cache {path} has no rows for J={J} K={K}, a nonzero product")
    _check_rows_agree(f"cache {path} disagrees", J.mask, K.mask, {"cached": dict(pairs), "rewrite": dict(row)})
    if len(pairs) > len(row):  # a row written twice, which {L: d} cannot show: the rewrite has 1 term on its L
        count, L = max(([M for M, _ in pairs].count(L), L) for L, _ in pairs)
        raise ConsistencyError(f"cache {path} has {count} rows for J={J} K={K} L={format_mask(L)}, the rewrite 1")
    return row


def _read_table(path: str, n: int, J: IndexSet, K: IndexSet) -> list[list[str]]:
    """The (L, d) cells of the rows for (J, K) in a CSV table file; Refused if its first line is not the header
    n,J,K,L,d, as that of a JSON table is not, or if a line read is of another rank.  The table is bisected over byte
    offsets in the (J mask, K mask) order that `table` writes: out of it, some of a pair's rows can be missed."""
    with open(path, "rb") as fh:
        if not (header := fh.readline(16)):  # a bounded read, as a JSON table is one line
            return []  # an empty file
        if header.splitlines() != [b"n,J,K,L,d"]:
            raise Refused(f"cache {path} is malformed: its first line is not the CSV header n,J,K,L,d")
        import bisect
        import csv

        def cells(offset: int) -> list[str]:
            """The cells of the first line at or after byte ``offset`` > 0, or [] at the end of the file."""
            fh.seek(offset - 1)
            fh.readline()  # the rest of the line that holds byte offset - 1
            if not (line := fh.readline()):
                return []
            if (rank := decimal((text := line.decode()).split(",", 1)[0])) != n:
                raise Refused(f"cache {path} is for rank {rank}, not {n}")
            try:
                return next(csv.reader([text]))
            except csv.Error as exc:  # a bare "\r" in a cell, or a cell over the csv field limit
                raise ValueError(f"a line csv cannot read: {exc}") from None

        def at_or_past(offset: int) -> bool:  # whether the first line at or after offset is the pair's, later or none
            _, j, k, *_ = cells(offset) or (None, None, None)  # a ValueError on a line of fewer cells
            return j is None or (IndexSet.parse(j, n).mask, IndexSet.parse(k, n).mask) >= (J.mask, K.mask)

        # the pair's first line is that of the least offset at or past it; its block runs to another pair or the end
        row, rows = cells(bisect.bisect_left(range(fh.seek(0, os.SEEK_END)), True, len(header), key=at_or_past)), []
        while row[1:3] == [J.format(), K.format()]:
            rows.append(row[3:])
            row = cells(fh.tell())
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
         option("--n-max", dest="n_max", type=decimal, default=7, help="Largest rank checked (default: 7)."),
         option("--jobs", dest="jobs", type=decimal, default=1, help="Worker processes for the checks (default: 1)."))
def cmd_verify(n_max: int, jobs: int) -> None:
    """Exhaustively cross-check the three engines and the supporting
    combinatorics for every rank up to --n-max."""
    verify.run(n_max, jobs)


@command("table", RANK,
         option("--degree", dest="degree", type=decimal, help="Only pairs with |J| + |K| equal to this."),
         option("--J", dest="J", metavar="SUBSET", help="Restrict to this J."),
         option("--K", dest="K", metavar="SUBSET", help="Restrict to this K."),
         option("--format", dest="fmt", choices=("csv", "json"), default="csv", help="Output (default: csv)."),
         option("--out", dest="out", type=_file, metavar="PATH", help="Output path (default: stdout)."))
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
        options = _read(sys.argv[1:] if argv is None else argv) or vars(sys.modules[__name__].cli.parse_args(argv))
        cmd = COMMANDS[options.pop("command")]
        if "n" in options and not 1 <= options["n"] <= MAX_QUERY_RANK:
            raise UsageError(f"rank must be in [1, {MAX_QUERY_RANK}], got {options['n']}")
        for flag, dest in cmd.subsets:
            try:
                options[dest] = None if options[dest] is None else IndexSet.parse(options[dest], options["n"])
            except ValueError as exc:
                raise UsageError(f"bad {flag}: {exc}") from None
        cmd.callback(**options)
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
