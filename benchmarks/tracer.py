"""Span tracing for one petring CLI process, from outside the package.

Run as a script, this module imports ``petring.cli``, wraps the public
functions of every petring module (and the CLI command callbacks) with a
span recorder, runs one CLI command and writes the spans to a file:

    python benchmarks/tracer.py SPAN_FILE COMMAND_ID <petring arguments...>

A span is (name, start, end, parent span).  Spans stay in memory as flat
arrays until the command ends.  ``summarize`` reads a span file back and
computes each span name's call count and self time: the span's duration
minus the time its direct child spans cover (calls are properly nested in
one thread, so the children never overlap).

Nothing under ``src/`` is edited: wrappers replace module attributes, in
every petring module that imported the same function object, so calls
through a module's globals reach the wrapper.  Pool workers forked by
``verify --jobs N`` inherit the wrappers but record nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from array import array

LAYERS = ("intervals", "permutations", "diagrams", "ring", "oracle")
CLI_COMMANDS = ("expand", "diagrams", "verify", "table", "group")
# relation_rows runs only inside an elimination; its time belongs to the
# elimination span, so it is left unwrapped.
UNWRAPPED = {"oracle": {"relation_rows"}}

_ARRAYS = (("name_id", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Recorder:
    """Span store for one process.  ``counters`` and ``cold`` hold exact
    counts that the wrappers take from call arguments and results."""

    def __init__(self, command_id: str) -> None:
        self.command_id = command_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.enabled = True
        self.counters: dict[str, int] = {}
        # [n, d, columns, quotient dimension] of each elimination run
        self.cold: list[list[int]] = []
        self.seen_nd: set[tuple[int, int]] = set()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float) -> None:
        self.name_id.append(self.intern(name))
        self.parent.append(self._stack[-1])
        self.start.append(start)
        self.end.append(end)

    def wrap(self, fn, name_of):
        """Wrap ``fn``; ``name_of(args)`` returns the span's name id."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(name_of(args))
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()

        return traced

    def dump(self, path: str) -> None:
        header = {
            "command": self.command_id,
            "names": self.names,
            "count": len(self.start),
            "counters": self.counters,
            "cold": self.cold,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for attr, _ in _ARRAYS:
                getattr(self, attr).tofile(fh)


def _constant(rec: Recorder, name: str):
    nid = rec.intern(name)
    return lambda args: nid


def _elimination_classifier(rec: Recorder, name: str):
    """Name a normal_form / quotient_dimension span ``<name>.cold`` when it
    is the first call in the process to need the degree-d elimination at
    rank n (d >= 2, and for normal_form a monomial that is not square-free),
    and record that (n, d) with its column count C(n+d-2, d)."""
    warm, cold = rec.intern(name), rec.intern(name + ".cold")
    takes_monomial = name == "oracle.normal_form"

    def name_of(args):
        if takes_monomial:
            m = args[0]
            if m.is_square_free:
                return warm
            n, d = m.n, m.degree
        else:
            n, d = args
        if d < 2 or (n, d) in rec.seen_nd:
            return warm
        rec.seen_nd.add((n, d))
        rec.cold.append([n, d, math.comb(n + d - 2, d)])
        return cold

    return name_of


def _row_counter(rec: Recorder, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rows = fn(*args, **kwargs)
        if rec.enabled:
            rec.counters["cli.lookup_rows_read"] = rec.counters.get("cli.lookup_rows_read", 0) + len(rows)
        return rows

    return counted


def install(rec: Recorder) -> None:
    """Wrap every public plain function of the petring layers and the CLI
    command callbacks."""
    import petring.cli as cli

    modules = [m for name, m in sys.modules.items() if name.startswith("petring")]
    for layer in LAYERS:
        mod = sys.modules[f"petring.{layer}"]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if (
                not inspect.isfunction(fn)
                or inspect.isgeneratorfunction(fn)
                or fn.__module__ != mod.__name__
                or attr in UNWRAPPED.get(layer, ())
            ):
                continue
            span = f"{layer}.{attr}"
            if span in ("oracle.normal_form", "oracle.quotient_dimension"):
                name_of = _elimination_classifier(rec, span)
            else:
                name_of = _constant(rec, span)
            wrapped = rec.wrap(fn, name_of)
            for m in modules:
                if getattr(m, attr, None) is fn:
                    setattr(m, attr, wrapped)
    for name in CLI_COMMANDS:
        command = cli.cli.commands.get(name)
        if command is not None:
            command.callback = rec.wrap(command.callback, _constant(rec, f"cli.{name}"))
    # the table-file reader behind `expand --cached`: counts rows, no span
    if hasattr(cli, "_read_table"):
        cli._read_table = _row_counter(rec, cli._read_table)
    os.register_at_fork(after_in_child=lambda: setattr(rec, "enabled", False))


def summarize(path: str) -> dict:
    """Per span name: calls, total duration and self time, in seconds."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for attr, code in _ARRAYS:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays[attr] = arr
    name_id, parent, start, end = (arrays[a] for a, _ in _ARRAYS)
    covered = [0.0] * header["count"]
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    spans: dict[str, dict] = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in header["names"]}
    for i, nid in enumerate(name_id):
        entry = spans[header["names"][nid]]
        duration = end[i] - start[i]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - covered[i]
    return {"command": header["command"], "spans": spans, "counters": header["counters"], "cold": header["cold"]}


def main(argv: list[str]) -> int:
    path, command_id, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder(command_id)
    t0 = time.perf_counter()
    import petring.cli

    rec.add("cli.import", t0, time.perf_counter())
    install(rec)
    try:
        code = petring.cli.main(cli_args)
    finally:
        rec.enabled = False
        # quotient dimension of each eliminated (n, d), from the memoized
        # elimination, so reading it runs no new elimination
        quotient_dimension = sys.modules["petring.oracle"].quotient_dimension
        for entry in rec.cold:
            entry.append(quotient_dimension(entry[0], entry[1]))
        rec.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
