"""The body of ``petring table``, whose options and help ``cli`` registers: the rewrite's rows of one rank,
computed and written one J at a time, as CSV or JSON."""

import functools
import os
import sys
from collections.abc import Sequence

from . import ring
from .cli import MAX_TABLE_PAIRS, Refused
from .intervals import IndexSet

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
    """Write the (J, (K, row) pairs) blocks of a rank-n table to ``fh``, a line (J, K, L, d) per (L, d), and
    return the number of lines.  A CSV block is written whole, also when one of its pairs raises."""
    if fmt == "csv":
        fh.write("n,J,K,L,d\n")
        # a cell holds only digits, commas or "-", and csv quotes it exactly when it holds a comma
        cell = functools.cache(lambda m: f'"{s}",' if "," in (s := IndexSet.from_mask(n, m).format()) else f"{s},")
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
    import json
    members = functools.cache(lambda m: IndexSet.from_mask(n, m).as_tuple())
    json_rows = [{"J": members(J), "K": members(K), "L": members(L), "d": str(d)}
                 for J, rows in blocks for K, row in rows for L, d in row]
    fh.write(json.dumps({"n": n, "rows": json_rows}) + "\n")
    return len(json_rows)
