"""What the tests share: the engines' memos emptied, one memoized entry
corrupted, a run step wrapped in the rewrite and the game, --jobs 2 allowed
on one CPU, the command line run in-process or in a fresh interpreter, and each
fault that more than one test plants, written once."""

import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import petring.cli
from petring import diagrams, intervals, oracle, ring

GOLDEN = ["expand", "-n", "10", "-J", "1,3,5,6,7", "-K", "3,6,8"]  # the golden example

# every functools cache that a petring module binds, as (module, name), found rather than listed: each memo where it
# is defined, and each binding of one by name in another module, as ring's of mask_m_factor; and the functions they
# memoize, taken before any test replaces one
MEMOS = tuple((module, name) for path in sorted(Path(petring.cli.__file__).parent.glob("[!_]*.py"))
              for module in [importlib.import_module(f"petring.{path.stem}")]
              for name, value in vars(module).items() if hasattr(value, "cache_info"))
_CLEAN = {(module, name): getattr(module, name).__wrapped__ for module, name in MEMOS}


def empty_memos(monkeypatch):
    """Give each engine memo an empty one, so that a fault planted after this
    reaches every row that takes the faulty step."""
    for module, name in MEMOS:
        monkeypatch.setattr(module, name, functools.lru_cache(maxsize=None)(_CLEAN[module, name]))


def empty(memo):
    """A new, empty memo of the function that the memo ``memo`` memoizes."""
    return functools.lru_cache(maxsize=None)(memo.__wrapped__)


def plant(monkeypatch, module, name, at, change):
    """Give the memo ``name`` of ``module`` an empty one whose entry at the
    arguments ``at`` is ``change`` of the clean entry."""
    clean = _CLEAN[module, name]
    monkeypatch.setattr(module, name, functools.lru_cache(maxsize=None)(
        lambda *args: change(clean(*args)) if args == at else clean(*args)))


def wrap_run_step(monkeypatch, change):
    """Give the rewrite and the game the run step ``change(mask, i, n, a, b,
    den, moves)``, with (a, b, den, moves) the clean step's."""
    step = intervals.run_step
    for module in (ring, diagrams):
        monkeypatch.setattr(module, "run_step", lambda mask, i, n: change(mask, i, n, *step(mask, i, n)))


def two_cpus(monkeypatch):
    """Allow --jobs 2 on one CPU too; its worker is forked, so it runs what
    the test planted."""
    monkeypatch.setattr("os.cpu_count", lambda: 2)


def run(capsys, *argv):
    """The command line ``argv`` run in-process: its exit code, stdout and stderr."""
    code = petring.cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*args, **kwargs):
    """Run the interpreter on ``args`` with this checkout's petring importable."""
    src = Path(petring.cli.__file__).parents[1]
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, **kwargs)


def step_tripled(monkeypatch, masks=None):
    """NF(g_2 * x_{2}) at rank 4, (x_{1,2} + x_{2,3}) / 2, with its terms
    tripled: those on ``masks``, or all of them."""
    plant(monkeypatch, oracle, "_step", (4, 2, 0b010),
          lambda entry: ({L: 3 * v if masks is None or L in masks else v for L, v in entry[0].items()}, entry[1]))


def to_column_one(mask, i, n, a, b, den, moves):
    """A run step whose every move goes to column 1."""
    return a, b, den, tuple((1, num) for _, num in moves)


def to_column_n(mask, i, n, a, b, den, moves):
    """A run step that also moves to column n when the run around i ends at n - 1."""
    return a, b, den, (moves + ((n, 1),) if b == n - 1 else moves)
