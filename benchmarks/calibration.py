"""The benchmark's calibration kernel: a fixed piece of pure-Python work.

    python3 benchmarks/calibration.py

runs it once.  run.py times this process around every command to follow
the host's speed (see ``calibrate_after`` there).  The kernel lives in the
benchmark, not in petring, so that no change to the program changes it.
"""

from __future__ import annotations

import heapq
import math


def kernel() -> int:
    """Pure-Python work of the program's kind: sparse integer rows in
    dicts, heap-ordered elimination, gcd content.  Returns the number of
    pivots found, which is always 480."""
    found = 0
    for rep in range(8):
        pivots: dict[int, dict[int, int]] = {}
        for r in range(60):
            row = {(r * 37 + k * 11 + rep) % 90: (r + 1) * (k + 2) - 7 * k for k in range(12)}
            heap = list(row)
            heapq.heapify(heap)
            while heap:
                c = heapq.heappop(heap)
                v, p = row.get(c, 0), pivots.get(c)
                if not v or p is None:
                    continue
                for col in row:
                    row[col] *= p[c]
                for col, pv in p.items():
                    nv = row.get(col, 0) - v * pv
                    if nv:
                        if col not in row and col > c:
                            heapq.heappush(heap, col)
                        row[col] = nv
                    else:
                        row.pop(col, None)
                g = 0
                for val in row.values():
                    g = math.gcd(g, val)
                if g > 1:
                    for col in row:
                        row[col] //= g
            row = {c: v for c, v in row.items() if v}
            if row and min(row) not in pivots:
                pivots[min(row)] = row
        found += len(pivots)
    return found


if __name__ == "__main__":
    kernel()
