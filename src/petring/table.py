"""The body of ``petring table``, whose options and help ``cli`` registers: the rewrite's rows of one rank,
computed and written one J at a time, as CSV or JSON."""

import functools
import os
import sys
from collections.abc import Sequence

from . import ring
from .cli import MAX_TABLE_PAIRS, Refused, csv_cell

__all__ = ["run"]


def run(n: int, degree: int | None, js: Sequence[int], ks: Sequence[int], fmt: str, out: str | None) -> None:
    """The table of the pairs of a J mask of ``js`` and a K mask of ``ks``, with |J| + |K| = ``degree`` unless
    it is None, to ``out``, through a temporary file beside it, or to stdout; Refused above the pair cap, or for
    an ``out`` that is a symbolic link, which the move over it would replace."""
    if out is not None and os.path.islink(out):
        raise Refused(f"--out {out} is a symbolic link")
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
    """Write the (J, (K, row) pairs) blocks of a rank-n table to ``fh`` and return its number of rows: the header,
    then each J's rows in one write, also when one of its pairs raises, then the closing text.  A CSV row is a line
    n,J,K,L,d; a JSON row is the text that json.dumps gives of {"J": [...], "K": [...], "L": [...], "d": "d"}, and
    the rows are joined by ", " in {"n": n, "rows": [...]}."""
    if fmt == "csv":
        cell = functools.cache(lambda m: f"{csv_cell(m)},")
        start, keys, sep, close = "n,J,K,L,d\n", (f"{n},", "", "", "", "\n"), "", ""
    else:  # a list of ints prints as json.dumps prints it
        cell = functools.cache(lambda m: f"{[i for i in range(1, n) if m >> (i - 1) & 1]}, ")
        start, keys, sep, close = f'{{"n": {n}, "rows": [', ('{"J": ', '"K": ', '"L": ', '"d": "', '"}'), ", ", "]}\n"
    on_J, on_K, on_L, on_d, end = keys  # a row is on_J J on_K K on_L L on_d d end, each subset as its cell
    fh.write(start)
    count, lead = 0, ""
    for J, rows in blocks:
        lines, head_J = [], f"{on_J}{cell(J)}{on_K}"
        try:
            for K, row in rows:
                head = f"{head_J}{cell(K)}{on_L}"
                for L, d in row:
                    lines.append(f"{head}{cell(L)}{on_d}{d}{end}")
        finally:
            if lines:
                fh.write(lead + sep.join(lines))
                lead = sep
        count += len(lines)
    if close:
        fh.write(close)
    return count
