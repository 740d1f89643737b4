"""The body of ``petring expand --cached``, whose option ``cli`` registers: the pair's rows, bisected out of a CSV
table file that `table` wrote, answered only where they equal the rewrite's row.  No other command runs this module."""

import bisect
import csv
import os

from . import cli, ring
from .errors import ConsistencyError, Row
from .intervals import IndexSet, decimal, format_mask

__all__ = ["cached_row"]


def cached_row(path: str, n: int, J: IndexSet, K: IndexSet) -> Row:
    """The rewrite's row of (J, K) if the pair's rows in a table file equal it: Refused if the file does not parse or
    has no rows for a nonzero product, else ConsistencyError for any other difference."""
    try:
        pairs = [(IndexSet.parse(L, n).mask, decimal(d)) for L, d in _read_table(path, n, J, K)]
    except ValueError as exc:  # UnicodeDecodeError included
        raise cli.Refused(f"cache {path} is malformed: {type(exc).__name__}: {exc}") from None
    if (row := ring.rewrite_row(n, J.mask, K.mask)) and not pairs:  # a pair that filters left out
        raise cli.Refused(f"cache {path} has no rows for J={J} K={K}, a nonzero product")
    cli._check_rows_agree(f"cache {path} disagrees", J.mask, K.mask, {"cached": dict(pairs), "rewrite": dict(row)})
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
            raise cli.Refused(f"cache {path} is malformed: its first line is not the CSV header n,J,K,L,d")

        def cells(offset: int) -> list[str]:
            """The cells of the first line at or after byte ``offset`` > 0, or [] at the end of the file."""
            fh.seek(offset - 1)
            fh.readline()  # the rest of the line that holds byte offset - 1
            if not (line := fh.readline()):
                return []
            if (rank := decimal((text := line.decode()).split(",", 1)[0])) != n:
                raise cli.Refused(f"cache {path} is for rank {rank}, not {n}")
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
