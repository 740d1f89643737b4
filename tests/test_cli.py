import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import petring.cli
import petring.table
import petring.verify
from helpers import (GOLDEN, MEMOS, plant, python, run, step_tripled, to_column_n, to_column_one, two_cpus,
                     wrap_run_step)
from petring import algebra, diagrams, oracle, relations, ring
from petring.intervals import IndexSet, all_index_sets
from petring.ring import rewrite_row, structure_constants_rewrite

from petring.cli import main
from petring.errors import ConsistencyError


@pytest.mark.parametrize("module, unneeded", [
    ("petring.cli", ["click", "dataclasses", "inspect", "fractions", "decimal", "csv", "json"]),
    ("petring.intervals", ["petring.ring", "petring.diagrams", "petring.oracle"]),
    ("petring", [f"petring.{m}" for m in ("cli", "diagrams", "errors", "intervals", "listings", "oracle",
                                          "permutations", "relations", "ring", "table", "verify")]),
])
def test_fresh_import_loads_no_unneeded_module(module, unneeded):
    # in a fresh interpreter, the modules that the import adds to those loaded at start-up
    code = f"import sys; before = set(sys.modules); import {module}; print(*set(sys.modules) - before)"
    proc = python("-c", code, check=True)
    assert not set(unneeded) & set(proc.stdout.split()), proc.stdout


@pytest.fixture(scope="module")
def tables5(tmp_path_factory):
    """The n = 5 table as CSV and as JSON, by format."""
    paths = {fmt: tmp_path_factory.mktemp("tables") / f"table5.{fmt}" for fmt in ("csv", "json")}
    for fmt, path in paths.items():
        assert main(["table", "-n", "5", "--format", fmt, "--out", str(path)]) == 0
    return paths


@pytest.mark.parametrize("argv, ran", [
    ([], []),
    (["expand", "-n", "5", "-J", "1", "-K", "2", "--cached", "{csv}"], []),
    (["expand", "-n", "5", "-J", "1", "-K", "2", "--cached", "{json}"], []),
    (["table", "-n", "5"], ["ring", "table"]),
    (["expand", "-n", "5", "-J", "1", "-K", "2", "--method", "all"], ["diagrams", "oracle", "ring"]),
    (["diagrams", "-n", "5", "-J", "1", "-K", "1", "-L", "1,2"], ["diagrams", "listings"]),
    (["verify", "--n-max", "3"], ["diagrams", "oracle", "permutations", "ring", "verify"]),
], ids=["import", "cached-csv", "cached-json", "table", "expand-all", "diagrams", "verify"])
def test_a_command_runs_only_the_engine_modules_it_calls(tables5, argv, ran):
    # in a fresh interpreter, after `import petring.cli` and the command: every module that cli calls is
    # in sys.modules and bound on the package, as an import binds it, and is a plain module once run;
    # any attribute read would run it, so its type is tested; the class algebra and the relation
    # reference, which cli never calls, are not imported at all
    argv = [arg.format(**tables5) for arg in argv]
    code = ("import sys, types, petring; from petring.cli import main; "
            "code = main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "called = ('diagrams', 'listings', 'oracle', 'permutations', 'ring', 'table', 'verify'); "
            "modules = {m: sys.modules.get('petring.' + m) for m in sorted((*called, 'algebra', 'relations'))}; "
            "assert all(getattr(petring, m) is modules[m] for m in called); "
            "print(*(m for m, module in modules.items() if type(module) is types.ModuleType), file=sys.stderr); "
            "sys.exit(code)")
    proc = python("-c", code, *argv, timeout=60)
    assert (proc.returncode, proc.stderr.split()) == (0, ran), proc.stderr


@pytest.mark.parametrize("argv, added", [
    (GOLDEN, []),
    (["expand", "-n", "5", "-J", "1", "-K", "2", "--cached", "{csv}"], []),
    (["table", "-n", "4"], []),
    (["group", "-n", "5", "-J", "1,2"], []),
    (["diagrams", "-n", "5", "-J", "1", "-K", "1", "-L", "1,2"], []),
    (["verify", "--n-max", "2"], []),
    (["table", "-n", "4", "--format", "json"], ["json"]),
    (["expand", "-n", "5", "-J", "1", "-K", "2", "--cached", "{json}"], ["json"]),
], ids=["expand", "cached-csv", "table", "group", "diagrams", "verify", "table-json", "cached-json"])
def test_a_command_loads_typing_and_json_only_where_it_needs_them(tables5, argv, added):
    # under -S, as a .pth file in site-packages may import typing at start-up (certifi's does), which would hide
    # it from test_fresh_import_loads_no_unneeded_module: which of the two the command adds to `import argparse`
    argv = [arg.format(**tables5) for arg in argv]
    code = ("import sys, argparse; before = set(sys.modules); from petring.cli import main; "
            "code = main(sys.argv[1:]); "
            "print(*sorted({'typing', 'json'} & set(sys.modules) - before), file=sys.stderr); sys.exit(code)")
    proc = python("-S", "-c", code, *argv, timeout=60)
    assert (proc.returncode, proc.stderr.split()) == (0, added), proc.stderr


def test_a_query_compiles_only_the_code_it_runs():
    # a fresh `expand --method all` compiles every petring module it runs when no bytecode is written: the
    # package, cli, errors, intervals and the three engines, and none of the bodies of `verify` and `table`,
    # the diagram listings, the class algebra or the relation reference; code put back on the path shows here
    code = ("import sys, types; from petring.cli import main; code = main(sys.argv[1:]); "
            "print(*(m.__file__ for name, m in sys.modules.items() "
            "if name.split('.')[0] == 'petring' and type(m) is types.ModuleType), file=sys.stderr); "
            "sys.exit(code)")
    proc = python("-c", code, *GOLDEN, "--method", "all", timeout=60)
    assert proc.returncode == 0, proc.stderr
    ran = proc.stderr.split()
    assert sorted(Path(path).stem for path in ran) == ["__init__", "cli", "diagrams", "errors", "intervals",
                                                       "oracle", "ring"]
    assert sum(Path(path).read_text().count("\n") for path in ran) <= 1059


def test_a_cached_lookup_compiles_only_the_code_it_runs(tables5):
    # a fresh `expand --cached` on a CSV table runs no engine: it compiles the package, cli, errors and
    # intervals only
    code = ("import sys, types; from petring.cli import main; code = main(sys.argv[1:]); "
            "print(*(m.__file__ for name, m in sys.modules.items() "
            "if name.split('.')[0] == 'petring' and type(m) is types.ModuleType), file=sys.stderr); "
            "sys.exit(code)")
    proc = python("-c", code, "expand", "-n", "5", "-J", "1", "-K", "2", "--cached", str(tables5["csv"]),
                  timeout=60)
    assert proc.returncode == 0, proc.stderr
    ran = proc.stderr.split()
    assert sorted(Path(path).stem for path in ran) == ["__init__", "cli", "errors", "intervals"]
    assert sum(Path(path).read_text().count("\n") for path in ran) <= 650


def test_a_submodule_read_on_the_package_is_registered_but_not_run():
    # one attribute read on the package registers the module in sys.modules and binds it, unrun;
    # one attribute read on the module runs it
    code = ("import sys, types, petring; module = petring.verify; "
            "assert sys.modules['petring.verify'] is module is vars(petring)['verify']; "
            "assert type(module) is not types.ModuleType; module.run; assert type(module) is types.ModuleType")
    proc = python("-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["ring", "table", "verify"])
def test_a_submodule_imported_first_is_the_one_the_package_gives(module):
    # `table` and `verify` run `cli` while they are themselves mid-import, and cli's `from . import` of them
    # must give the module being imported, run once, not a second object that a monkeypatch would miss
    code = (f"import sys, types, petring.{module}; assert type(sys.modules['petring.{module}']) is types.ModuleType; "
            f"import petring.cli; from petring import {module} as imported; "
            f"assert imported is petring.{module} is sys.modules['petring.{module}'] is petring.cli.{module}")
    proc = python("-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["__main__", "_lazy", "no_such_module"])
def test_a_name_that_is_no_submodule_raises_and_registers_nothing(name):
    code = (f"import sys, petring; before = set(sys.modules)\n"
            f"try:\n    petring.{name}\nexcept AttributeError:\n    pass\nelse:\n    sys.exit('no error')\n"
            f"assert set(sys.modules) == before, set(sys.modules) - before")
    proc = python("-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_every_public_function_and_class_has_a_docstring():
    import importlib
    import inspect

    for module in ("algebra", "cli", "diagrams", "errors", "intervals", "listings", "oracle", "permutations",
                   "relations", "ring", "table", "verify"):
        public = vars(importlib.import_module(f"petring.{module}"))
        for name in public["__all__"]:
            obj = public[name]
            if inspect.isroutine(obj) or inspect.isclass(obj):  # not a constant, a type alias or the parser
                assert obj.__doc__, f"{module}.{name}"


def test_package_resolves_every_public_name():
    import petring
    from petring import errors, intervals, listings

    modules = (errors, intervals, algebra, ring, diagrams, listings, oracle, relations)
    assert petring.__version__ == "0.1.0" and len(petring.__all__) == 36
    for name in (n for n in petring.__all__ if n != "__version__"):
        assert any(getattr(m, name, None) is getattr(petring, name) for m in modules), name
    with pytest.raises(AttributeError):
        petring.no_such_name
    assert set(petring.__all__) <= set(dir(petring))


_MEMBER_9 = "member 9 outside {1, ..., 4}"


@pytest.mark.parametrize("argv, fork, line", [
    (["expand", "-n", "0", "-J", "9", "-K", "9"], True, "error: rank must be in [1, 16], got 0"),
    (["expand", "-n", "5", "-K", "x", "-J", "9"], True, f"error: bad -J: {_MEMBER_9}"),
    (["expand", "-n", "5", "-J", "1", "-K", "x"], True, "error: bad -K: cannot parse subset 'x'"),
    (["diagrams", "-n", "17", "-J", "9", "-K", "9", "-L", "9"], True, "error: rank must be in [1, 16], got 17"),
    (["diagrams", "-n", "5", "-L", "9", "-K", "9", "-J", "2,1"], True,
     "error: bad -J: subset '2,1' must list distinct integers in ascending order"),
    (["diagrams", "-n", "5", "-L", "9", "-K", "9", "-J", "1"], True, f"error: bad -K: {_MEMBER_9}"),
    (["diagrams", "-n", "5", "-J", "1", "-K", "1", "-L", "5"], True, "error: bad -L: member 5 outside {1, ..., 4}"),
    (["table", "-n", "0", "--K", "9", "--J", "9"], True, "error: rank must be in [1, 16], got 0"),
    (["table", "-n", "5", "--K", "9", "--J", "9"], True, f"error: bad --J: {_MEMBER_9}"),
    (["table", "-n", "5", "--J", "1", "--K", "1,1"], True,
     "error: bad --K: subset '1,1' must list distinct integers in ascending order"),
    (["group", "-n", "0", "-J", "9"], True, "error: rank must be in [1, 16], got 0"),
    (["group", "-n", "5", "-J", "9"], True, f"error: bad -J: {_MEMBER_9}"),
    (["verify", "--jobs", "0", "--n-max", "9"], True, "error: --n-max must be in [1, 8]"),
    (["verify", "--n-max", "0", "--jobs", "2"], False, "error: --n-max must be in [1, 8]"),
    (["verify", "--n-max", "3", "--jobs", "0"], True, "error: --jobs must be in [1, 2], the number of CPUs"),
    (["verify", "--n-max", "3", "--jobs", "3"], False, "error: --jobs must be in [1, 2], the number of CPUs"),
    (["verify", "--n-max", "3", "--jobs", "2"], False,
     "error: --jobs above 1 needs os.fork, which this platform does not have"),
])
def test_a_request_is_refused_at_its_first_bad_check(capsys, monkeypatch, argv, fork, line):
    # the rank first, then each subset in the order of the command's options, whatever their order on the command
    # line; `verify` checks --n-max, then --jobs against the CPUs, then os.fork, and a refused one forks nothing and
    # runs no check
    def refused(*args):
        raise AssertionError("a check ran or a worker was forked")

    two_cpus(monkeypatch)
    monkeypatch.setattr(petring.verify, "CHECKS", [("refused {status}", range(1, 9), refused, None)])
    if fork:
        monkeypatch.setattr(os, "fork", refused)
    else:
        monkeypatch.delattr(os, "fork")
    assert run(capsys, *argv) == (1, "", line + "\n")


class TestExpand:
    def test_golden_json(self, capsys):
        code, out, _ = run(capsys, *GOLDEN, "--method", "all")
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "all"
        assert data["terms"] == [
            {"L": [1, 2, 3, 4, 5, 6, 7, 8], "coeff": "3456"},
            {"L": [1, 2, 3, 5, 6, 7, 8, 9], "coeff": "24"},
            {"L": [1, 3, 4, 5, 6, 7, 8, 9], "coeff": "240"},
        ]

    @pytest.mark.parametrize("method", ["diagram", "rewrite", "linalg"])
    def test_single_engines_agree(self, capsys, method):
        code, out, _ = run(capsys, *GOLDEN, "--method", method)
        assert code == 0
        assert [t["coeff"] for t in json.loads(out)["terms"]] == ["3456", "24", "240"]

    def test_unit_times_unit(self, capsys):
        code, out, _ = run(capsys, "expand", "-n", "4", "-J", "-", "-K", "-")
        assert code == 0
        assert json.loads(out)["terms"] == [{"L": [], "coeff": "1"}]

    def test_empty_expansion(self, capsys):
        code, out, _ = run(capsys, "expand", "-n", "3", "-J", "1,2", "-K", "1,2")
        assert code == 0
        assert json.loads(out)["terms"] == []

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, *GOLDEN, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["coeff"] for r in rows] == ["3456", "24", "240"]
        assert rows[0]["J"] == "1,3,5,6,7"

    @pytest.mark.parametrize("argv, named", [
        (["expand", "-n", "99", "-J", "1", "-K", "2"], "rank"),
        (["expand", "-n", "5", "-J", "7", "-K", "-"], "-J"),
        (["expand", "-n", "5", "-J", "2,1", "-K", "-"], "-J"),
        (["expand", "-J", "1"], "-n/--rank"),
        (["expand", "-n", "x"], "error: argument -n/--rank: invalid decimal value: 'x'\n"),
        (["expand", "-n", "5", "--bogus"], "--bogus"),
        (["bogus", "-n", "5"], "bogus"),
        ([], "command"),
        (["expand", "-n", "5", "--method", "fast"], "--method"),
        (["expand", "-n", "5", "--format", "xml"], "--format"),
        (["expand", "-n", "5", "--cached", "{tmp}/missing.csv"], "--cached"),
        (["expand", "-n", "5", "--cached", "{tmp}"], "--cached"),
        (["table", "-n", "3", "--out", "{tmp}"], "--out"),
        (["verify", "--n-max", "x"], "error: argument --n-max: invalid decimal value: 'x'\n"),
        (["table", "-n", "3", "--out", "{tmp}/missing/t.csv"], "--out"),
        (["expand", "-n", "12", "-J", "1_0", "-K", "2"], "-J"),
        (["group", "-n", "12", "-J", "\u0663"], "-J"),
        (["expand", "-n", "1_0", "-J", "1", "-K", "2"], "error: argument -n/--rank: invalid decimal value: '1_0'\n"),
        (["group", "-n", "\u0661\u0660", "-J", "1"],
         "error: argument -n/--rank: invalid decimal value: '\u0661\u0660'\n"),
        (["table", "-n", "3", "--degree", "1_0"], "error: argument --degree: invalid decimal value: '1_0'\n"),
        (["table", "-n", "3", "--degree", "\u0662"], "error: argument --degree: invalid decimal value: '\u0662'\n"),
        (["verify", "--n-max", "0_3"], "error: argument --n-max: invalid decimal value: '0_3'\n"),
        (["verify", "--n-max", "\u0663"], "error: argument --n-max: invalid decimal value: '\u0663'\n"),
        (["verify", "--n-max", "1", "--jobs", "0_1"], "error: argument --jobs: invalid decimal value: '0_1'\n"),
        (["verify", "--n-max", "1", "--jobs", "\u0661"], "error: argument --jobs: invalid decimal value: '\u0661'\n"),
        (["verify", "--jobs", "x"], "error: argument --jobs: invalid decimal value: 'x'\n"),
        (["table", "-n", "3", "--out", ""], "error: argument --out: '' is not a regular file\n"),
    ], ids=["rank-out-of-range", "member-out-of-range", "unsorted-subset", "missing-n", "non-integer-n",
            "unknown-option", "unknown-command", "no-command", "bad-method", "bad-format", "cached-missing",
            "cached-directory", "out-directory", "non-integer-n-max", "out-missing-directory",
            "underscored-member", "non-ascii-member", "underscored-n", "non-ascii-n", "underscored-degree",
            "non-ascii-degree", "underscored-n-max", "non-ascii-n-max", "underscored-jobs", "non-ascii-jobs",
            "non-integer-jobs", "out-empty"])
    def test_usage_errors(self, capsys, tmp_path, argv, named):
        # ``named`` is the option at fault, or the whole stderr line
        code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err

    def test_unreadable_or_unwritable_path_refused(self, capsys, tmp_path, monkeypatch):
        # root passes the permission bits, so access is refused by patching
        table = tmp_path / "t.csv"
        table.write_text("n,J,K,L,d\n")
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        for argv, line in [
            (["expand", "-n", "3", "--cached", str(table)], f"argument --cached: {str(table)!r} is not readable"),
            (["table", "-n", "3", "--out", str(table)], f"argument --out: {str(table)!r} is not writable"),
            (["table", "-n", "3", "--out", str(tmp_path / "new.csv")],
             f"argument --out: directory of {str(tmp_path / 'new.csv')!r} is not writable"),
        ]:
            assert run(capsys, *argv) == (1, "", f"error: {line}\n")
        assert table.read_text() == "n,J,K,L,d\n"

    @pytest.mark.parametrize("argv", [["--help"], ["expand", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: petring")

    def test_deterministic_output(self, capsys):
        out1 = run(capsys, *GOLDEN)[1]
        out2 = run(capsys, *GOLDEN)[1]
        assert out1 == out2


class TestCheckedTail:
    """Every engine's expansion ends in one check of support, degree and
    integrality, so a wrong term is refused instead of printed."""

    def test_linalg_term_off_support_refused(self, capsys, monkeypatch):
        # NF(g_2 * x_{2}) at rank 5 with the weight of L = {1,2} moved onto
        # {3,4}, which does not contain J | K = {2}
        plant(monkeypatch, oracle, "_step", (5, 2, 0b0010),
              lambda entry: ({0b1100 if L == 0b0011 else L: v for L, v in entry[0].items()}, entry[1]))
        code, out, err = run(capsys, "expand", "-n", "5", "-J", "2", "-K", "2", "--method", "linalg")
        assert code == 2
        assert out == ""
        assert "linalg engine gave a term on L=3,4 for J=2, K=2" in err

    def test_diagram_shading_off_degree_refused(self, capsys, monkeypatch):
        # the game from {2} with row 2 at rank 5, with its final shading
        # {1,2} turned into {1,2,3}, one column more than |J| + |K|
        plant(monkeypatch, diagrams, "_game_sums", (5, 0b0010, 0b0010),
              lambda entry: ({0b0111 if L == 0b0011 else L: v for L, v in entry[0].items()}, entry[1], {}))
        code, out, err = run(capsys, "expand", "-n", "5", "-J", "2", "-K", "2", "--method", "diagram")
        assert code == 2
        assert out == ""
        assert "diagram engine gave a term on L=1,2,3 for J=2, K=2" in err

    def test_term_past_the_last_column_refused(self, capsys, monkeypatch, tmp_path):
        # a run step that also moves to column n when the run ends at n - 1,
        # in the rewrite and in the game alike: each command names the term
        # outside {1, ..., n-1} and exits 2, rather than failing to build L
        wrap_run_step(monkeypatch, to_column_n)
        code, out, err = run(capsys, "expand", "-n", "4", "-J", "3", "-K", "3", "--method", "rewrite")
        assert (code, out) == (2, "")
        assert err == "consistency failure: rewrite engine gave a term on L=3,4 for J=3, K=3, outside {1, ..., 3}\n"
        path = tmp_path / "table4.csv"
        path.write_bytes(b"an earlier table\n")
        for argv in (["table", "-n", "4"], ["table", "-n", "4", "--out", str(path)]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert err == ("consistency failure: rewrite engine gave a term on L=1,2,3,4 for J=1, K=1,2,3, "
                           "outside {1, ..., 3}\n")
        assert path.read_bytes() == b"an earlier table\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table4.csv"]
        code, out, err = run(capsys, "verify", "--n-max", "4")
        assert code == 2
        assert "Traceback" not in err
        lines = err.splitlines()
        assert lines[0] == "FAIL n=2 J=1 K=1: diagram engine gave a term on L=1,2 for J=1, K=1, outside {1, ..., 1}"
        assert ("FAIL n=4 i=2: rewrite engine gave a term on L=2,3,4 for J=2,3, K=2, "
                "outside {1, ..., 3}") in lines
        assert lines[-1] == "consistency failure: 31 verification check(s) failed"


class TestExpansionRecord:
    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, *GOLDEN)
        record = json.loads(out)
        assert json.dumps(record, separators=(", ", ": ")) == out.strip()
        assert json.loads(json.dumps(record)) == record
        assert list(record) == ["n", "J", "K", "method", "terms"]
        assert (record["n"], record["J"], record["K"], record["method"]) == (10, [1, 3, 5, 6, 7], [3, 6, 8], "all")
        assert all(list(term) == ["L", "coeff"] and type(term["coeff"]) is str for term in record["terms"])

    @pytest.mark.parametrize("method", ["all", "diagram", "rewrite", "linalg"])
    def test_record_is_the_text_of_json_dumps(self, capsys, method):
        # the record, written without json, against json.dumps of the record as a dict: every pair at n <= 5,
        # and the pinned pairs at n = 10 and n = 16
        pairs = [(n, J, K) for n in range(1, 6) for J in all_index_sets(n) for K in all_index_sets(n)]
        pairs += [(10, IndexSet.of(10, [1, 3, 5, 6, 7]), IndexSet.of(10, [3, 6, 8])),
                  (16, IndexSet.of(16, range(2, 7)), IndexSet.of(16, range(2, 7)))]
        for n, J, K in pairs:
            argv = ["expand", "-n", str(n), "-J", J.format(), "-K", K.format(), "--method", method]
            assert run(capsys, *argv) == (0, _dumped_record(n, J, K, method), ""), argv

    def test_cached_record_is_the_text_of_json_dumps(self, capsys, tables5):
        for J, K, path in itertools.product(all_index_sets(5), all_index_sets(5), tables5.values()):
            argv = ["expand", "-n", "5", "-J", J.format(), "-K", K.format(), "--cached", str(path)]
            assert run(capsys, *argv) == (0, _dumped_record(5, J, K, "cached"), ""), argv


def _dumped_record(n, J, K, method):
    """``json.dumps`` of the `expand` record of (J, K) as a dict, and a newline."""
    terms = [{"L": list(IndexSet.from_mask(n, L).as_tuple()), "coeff": str(d)}
             for L, d in diagrams.diagram_row(n, J.mask, K.mask)]
    return json.dumps({"n": n, "J": list(J.as_tuple()), "K": list(K.as_tuple()), "method": method,
                       "terms": terms}) + "\n"


class TestDiagramsCommand:
    def test_d_is_read_from_the_row_that_expand_prints(self, capsys, monkeypatch):
        # the last line's d is diagram_row's, which `expand --method diagram` prints, not a sum of the listing
        monkeypatch.setattr(diagrams, "diagram_row", lambda n, J, K: ((0b11, 7),))
        code, out, _ = run(capsys, "diagrams", "-n", "5", "-J", "1", "-K", "1", "-L", "1,2")
        assert (code, out.splitlines()[-1]) == (0, "d = 7")
        assert run(capsys, "expand", "-n", "5", "-J", "1", "-K", "1", "--method", "diagram") == \
            (0, '{"n": 5, "J": [1], "K": [1], "method": "diagram", "terms": [{"L": [1, 2], "coeff": "7"}]}\n', "")

    def test_two_diagrams(self, capsys):
        code, out, _ = run(capsys, "diagrams", "-n", "10", "-J", "1,3,5,6,7", "-K", "3,6,8",
                           "-L", "1,2,3,4,5,6,7,8")
        assert code == 0
        assert "diagram 1 of 2" in out and "diagram 2 of 2" in out
        assert "weight 3/10" in out and "weight 3/14" in out
        assert out.strip().endswith("d = 3456")

    def test_single_diagram(self, capsys):
        code, out, _ = run(capsys, "diagrams", "-n", "10", "-J", "1,3,5,6,7", "-K", "3,6,8",
                           "-L", "1,2,3,5,6,7,8,9")
        assert code == 0
        assert "diagram 1 of 1" in out and "weight 1/5" in out
        assert out.strip().endswith("d = 24")

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "diagrams", "-n", "5", "-J", "1", "-K", "1", "-L", "1,3")
        assert code == 0
        assert "no diagrams; d = 0" in out


def _odd_rank_fails(n, part):
    """A check added to `verify`'s table by a test: it fails at odd ranks."""
    return [f"n={n}: odd rank"] if n % 2 else []


def _worker_cpus(n, part):
    """A check added to `verify`'s table by a test: it holds its worker a
    moment, so that every worker takes a part, and fails with a line
    "pid:cpus" naming the worker and its CPU mask."""
    time.sleep(0.05)
    return [f"{os.getpid()}:{','.join(map(str, sorted(os.sched_getaffinity(0))))}"]


def _named_after(n, part):
    """A task of the forked map by a test: ``part`` is (name, seconds); it
    sleeps those seconds and returns the name and its process id."""
    time.sleep(part[1])
    return [part[0], str(os.getpid())]


def _all_reaped():
    """Whether this process has no child left, exited or running."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _pair_raises(monkeypatch):
    # the rewrite kernel raises at (J, K) = ({1,3}, {2}), in the sweep and in
    # the single-pair rewrite_row of the three-engine row alike
    kernel = ring.rewrite_rows

    def faulty(n, J, ks):
        for K in ks:
            if (J, K) == (0b101, 0b010):
                raise ConsistencyError("injected")
            yield from kernel(n, J, [K])

    monkeypatch.setattr(ring, "rewrite_rows", faulty)


def _move_weight_off_by_one(monkeypatch):
    # g_2 times the monomial on {2}: its first move weighs one more, in the
    # rewrite and in the game alike
    def off(mask, i, n, a, b, den, moves):
        if (mask, i) == (0b10, 2):
            moves = ((moves[0][0], moves[0][1] + 1),) + moves[1:]
        return a, b, den, moves

    wrap_run_step(monkeypatch, off)


def _top_form_tripled(form):
    """The normal form of each monomial of the top degree n - 1 with every
    term tripled; the recursion of ``form`` runs through this too, and the
    forms below the top degree stay as they are."""

    def tripled(n, exps):
        row, den = form(n, exps)
        return ({S: 3 * v for S, v in row.items()} if sum(exps) == n - 1 else row), den

    return tripled


def _game_doubled(monkeypatch):
    # the game from {2} with row 2 at rank 4 with every sum doubled
    plant(monkeypatch, diagrams, "_game_sums", (4, 0b010, 0b010),
          lambda entry: ({L: 2 * v for L, v in entry[0].items()}, entry[1], {}))


class TestVerify:
    def test_small_ranks_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "5")
        assert code == 0
        assert "n=5: 256 (J,K) pairs" in out
        assert "all checks passed" in out

    def test_process_pool_matches_serial(self, capsys, monkeypatch):
        # one fork serves the checks of every rank under --jobs 2: jobs - 1 children, the parent the other worker
        serial = run(capsys, "verify", "--n-max", "6", "--jobs", "1")
        forks, parent = [], os.getpid()
        fork = os.fork

        def counting():
            forks.append(os.getpid())
            return fork()

        two_cpus(monkeypatch)
        monkeypatch.setattr(os, "fork", counting)
        pooled = run(capsys, "verify", "--n-max", "6", "--jobs", "2")
        assert forks == [parent]
        assert serial[0] == pooled[0] == 0
        assert pooled[1] == serial[1]
        assert "n=6: 1024 (J,K) pairs" in pooled[1]

    @pytest.mark.parametrize("module, target, fault, line", [
        ("ring", "_varpi_product", lambda f: lambda n, left, right: {L: 2 * r for L, r in f(n, left, right).items()},
         "FAIL n=3 i=2: integral of g_2^2 is 4 by the run rule, 1 by the relations, Eulerian number 1"),
        ("oracle", "_normal_form", _top_form_tripled,
         "FAIL n=3 i=2: integral of g_2^2 is 1 by the run rule, 3 by the relations, Eulerian number 1"),
    ], ids=["multiply", "normal_form"])
    def test_top_degree_fault_detected(self, capsys, monkeypatch, module, target, fault, line):
        # the check runs in a worker under --jobs 2, and reports the same
        module = getattr(petring, module)
        monkeypatch.setattr(module, target, fault(getattr(module, target)))
        two_cpus(monkeypatch)
        code, out, err = run(capsys, "verify", "--n-max", "3", "--jobs", "1")
        assert run(capsys, "verify", "--n-max", "3", "--jobs", "2") == (code, out, err)
        assert code == 2
        assert "n=2: top-degree evaluation FAIL" in out
        assert "n=3: top-degree evaluation FAIL" in out
        assert line in err.splitlines()

    def test_top_degree_off_the_class_algebra(self, capsys, monkeypatch):
        # the check works on integer rows: with the class algebra's product and
        # integral and the Fraction normal form raising wherever they are bound,
        # every line is as before
        expected = run(capsys, "verify", "--n-max", "6")
        assert expected[0] == 0 and "n=6: top-degree evaluation OK" in expected[1].splitlines()

        def refused(*args):
            raise AssertionError("the class algebra was called")

        modules = [m for name, m in sys.modules.items() if name.startswith("petring")]
        for name, fn in (("multiply", algebra.multiply), ("integral", algebra.integral),
                         ("normal_form", relations.normal_form)):
            for module in modules:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, refused)
        assert run(capsys, "verify", "--n-max", "6") == expected

    def test_verify_loads_no_fractions(self):
        code = ("import sys; from petring.cli import main; code = main(['verify', '--n-max', '8']); "
                "print('fractions' in sys.modules); sys.exit(code)")
        proc = python("-c", code, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-2:] == ["all checks passed", "False"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_each_worker_pinned_to_one_cpu(self, capsys, monkeypatch):
        # under --jobs 2 the parent and its forked child each run checks on one
        # CPU of the parent's mask, the two on different CPUs when the mask
        # holds two; the parent works pinned and gets its mask back
        mask = os.sched_getaffinity(0)
        two_cpus(monkeypatch)
        monkeypatch.setattr(petring.verify, "CHECKS", [("worker {status}", range(1, 9), _worker_cpus, None)])
        code, out, err = run(capsys, "verify", "--n-max", "8", "--jobs", "2")
        assert code == 2
        assert out.splitlines() == [f"n={n}: worker FAIL" for n in range(1, 9)]
        workers = dict(line.removeprefix("FAIL ").split(":") for line in err.splitlines()[:-1])
        assert len(workers) == 2
        assert all(cpu.isdigit() and int(cpu) in mask for cpu in workers.values())
        if len(mask) >= 2:
            assert len(set(workers.values())) == 2
        assert os.sched_getaffinity(0) == mask

    def test_forked_results_in_task_order(self):
        # the tasks sleep less the later they come, so that both processes
        # run some and finish out of order: the lines still come in task order
        results = petring.verify._forked_map([(_named_after, 1, (str(k), 0.02 * (8 - k))) for k in range(8)], 2)
        assert [lines[0] for lines in results] == [str(k) for k in range(8)]
        assert {lines[1] for lines in results} - {str(os.getpid())}
        assert _all_reaped()

    def test_forked_map_takes_indices_past_one_byte(self):
        tasks = [(lambda n, part: [str(n * part)], n, 3) for n in range(300)]
        assert petring.verify._forked_map(tasks, 2) == [[str(3 * n)] for n in range(300)]
        assert _all_reaped()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_forked_map_gives_back_the_mask_when_a_check_raises(self):
        # the check raises in the parent, while the child sleeps on the first task it takes
        mask, parent = os.sched_getaffinity(0), os.getpid()

        def raising(n, part):
            if os.getpid() == parent:
                raise ValueError("planted")
            time.sleep(0.2)
            return []

        with pytest.raises(ValueError, match="planted"):
            petring.verify._forked_map([(raising, n, None) for n in range(3)], 2)
        assert os.sched_getaffinity(0) == mask
        assert _all_reaped()

    def test_forked_map_refuses_a_cut_write(self, monkeypatch):
        # a child whose result write comes up short, as when a signal cuts it,
        # exits 1: refused by its wait status, though no task goes unreported
        write, parent = os.write, os.getpid()
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data) - (os.getpid() != parent))
        with pytest.raises(petring.cli.Refused, match=f"^a verify worker ended with wait status {1 << 8}, 0 check"):
            petring.verify._forked_map([], 2)
        assert _all_reaped()

    def test_worker_that_dies_is_named(self, capsys, monkeypatch):
        # a check that leaves its forked worker by os._exit(3): exit 1 and one
        # line naming the wait status, no check line, and the child reaped
        parent = os.getpid()

        def exits_in_worker(n, part):
            if os.getpid() != parent:
                os._exit(3)
            time.sleep(0.05)
            return []

        two_cpus(monkeypatch)
        monkeypatch.setattr(petring.verify, "CHECKS", [("dies {status}", range(1, 9), exits_in_worker, None)])
        code, out, err = run(capsys, "verify", "--n-max", "8", "--jobs", "2")
        assert (code, out) == (1, "")
        assert err == f"Error: a verify worker ended with wait status {3 << 8}, 1 check(s) unreported\n"
        assert _all_reaped()

    def test_verify_jobs_loads_no_process_pool(self):
        code = ("import os, sys; os.cpu_count = lambda: 2; from petring.cli import main; "
                "code = main(['verify', '--n-max', '3', '--jobs', '2']); "
                "print([m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')]); "
                "sys.exit(code)")
        proc = python("-c", code, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-2:] == ["all checks passed", "[]"]

    def test_jobs_refused_without_fork(self, capsys, monkeypatch):
        # where os.fork is missing, --jobs above 1 is refused before any work, and --jobs 1 runs
        two_cpus(monkeypatch)
        monkeypatch.delattr(os, "fork")
        assert run(capsys, "verify", "--n-max", "2", "--jobs", "1")[0] == 0

        def refused(n, part):
            raise AssertionError("a check ran")

        monkeypatch.setattr(petring.verify, "CHECKS", [("refused {status}", range(1, 9), refused, None)])
        code, out, err = run(capsys, "verify", "--n-max", "3", "--jobs", "2")
        assert (code, out) == (1, "")
        assert err == "error: --jobs above 1 needs os.fork, which this platform does not have\n"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_more_workers_than_cpus_in_the_mask(self):
        # with a mask of one CPU both workers take it: the second does not wait
        # for a CPU id of its own, and the output is that of --jobs 1
        script = ("import os, sys; cpu = min(os.sched_getaffinity(0)); os.sched_getaffinity = lambda pid: {cpu}; "
                  "os.cpu_count = lambda: 2; from petring.cli import main; "
                  "sys.exit(main(['verify', '--n-max', '5', '--jobs', sys.argv[1]]))")
        serial, pooled = (python("-c", script, jobs, timeout=60) for jobs in ("1", "2"))
        assert serial.returncode == pooled.returncode == 0
        assert pooled.stdout == serial.stdout
        assert "n=5: 256 (J,K) pairs cross-checked over three engines" in pooled.stdout.splitlines()
        assert pooled.stderr == serial.stderr == ""

    @pytest.mark.parametrize("module", ["petring", "petring.cli"])
    def test_runs_as_module(self, capsys, module):
        # `python -m` runs the command, as the installed `petring` script does
        code, out, err = run(capsys, "verify", "--n-max", "3")
        assert (code, err) == (0, "")
        assert "n=3: top-degree evaluation OK" in out.splitlines()
        proc = python("-m", module, "verify", "--n-max", "3", timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")

    def test_rank_one_trivial(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "1")
        assert code == 0

    def test_guard(self, capsys):
        assert run(capsys, "verify", "--n-max", "9")[0] == 1

    def test_jobs_above_cpu_count_refused_before_any_pool(self, capsys, monkeypatch):
        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        code, out, err = run(capsys, "verify", "--n-max", "3", "--jobs", "3")
        assert code == 1
        assert out == ""
        assert "--jobs must be in [1, 2]" in err

    def test_failure_names_subsets(self, capsys, monkeypatch):
        _pair_raises(monkeypatch)
        code, out, err = run(capsys, "verify", "--n-max", "5")
        assert code == 2
        assert "FAIL n=5 J=1,3 K=2: injected" in err.splitlines()
        assert "FAIL n=5 J=2 K=1,3: expansion not symmetric" in err.splitlines()
        assert "FAIL" not in out


    def test_corrupted_table_entry_detected(self, capsys, monkeypatch):
        # one wrong one-generator step, NF(g_2 * x_{2}) at rank 4, shows up
        # as a disagreement of linalg with the other engines
        step_tripled(monkeypatch)
        code, out, err = run(capsys, "verify", "--n-max", "4")
        assert code == 2
        assert "FAIL n=4 J=2 K=2: engines disagree" in err
        assert "n=3: top-degree evaluation OK" in out

    @pytest.mark.parametrize("tripled, first", [({0b011, 0b110}, "1,2"), ({0b110}, "2,3")])
    def test_disagreement_names_the_first_L_that_differs(self, capsys, monkeypatch, tripled, first):
        # NF(g_2 * x_{2}) at rank 4 is (x_{1,2} + x_{2,3}) / 2; tripling its
        # terms on the masks in ``tripled`` makes linalg differ from the
        # other engines, first at L = ``first``
        step_tripled(monkeypatch, tripled)
        linalg = {"1,2": 3 if 0b011 in tripled else 1, "2,3": 3}
        named = (f"engines disagree for J=2, K=2, first at L={first}: diagram d=1, rewrite d=1, linalg d=3; "
                 f"diagram={{'1,2': 1, '2,3': 1}} rewrite={{'1,2': 1, '2,3': 1}} linalg={linalg}")
        code, out, err = run(capsys, "verify", "--n-max", "4")
        assert code == 2
        assert f"FAIL n=4 J=2 K=2: {named}" in err.splitlines()
        assert "n=4: 64 (J,K) pairs cross-checked over three engines" in out.splitlines()
        assert run(capsys, "expand", "-n", "4", "-J", "2", "-K", "2") == (2, "", f"consistency failure: {named}\n")

    def test_every_map_issued_before_any_result_is_read(self, capsys, monkeypatch):
        # every check of every rank goes to the workers in one task list, so
        # no worker waits for the parent to issue more, and the workers take
        # them top rank first, in CHECKS order within a rank
        verify = petring.verify
        checks = [verify._verify_chunk, verify._graded_dimensions, verify._bruhat_criteria, verify._top_degree]
        expected = [(1, fn) for fn in checks[:3]] + [(n, fn) for n in (2, 3, 4) for fn in checks]
        issued, written = [], []

        def sweep(tasks):
            issued.append([(n, fn) for fn, n, _ in tasks])
            return verify._forked_map(tasks, 2)

        write = os.write
        with monkeypatch.context() as patched:  # the first write is the task queue
            patched.setattr(os, "write", lambda fd, data: written.append(bytes(data)) or write(fd, data))
            assert verify._verify_ranks(4, 2, sweep) == []
        # the pair sweep of a rank may be cut in parts, one task each
        assert len(issued) == 1
        assert [check for check, _ in itertools.groupby(issued[0])] == expected
        queue = [int.from_bytes(written[0][i:i + 2], "big") for i in range(0, len(written[0]), 2)]
        assert sorted(queue) == list(range(len(issued[0])))
        taken = [check for check, _ in itertools.groupby(issued[0][i] for i in queue)]
        assert taken == [(n, fn) for n in (4, 3, 2) for fn in checks] + [(1, fn) for fn in checks[:3]]
        assert "n=4: graded dimensions 0..5 OK" in capsys.readouterr().out
        # a check is one function and one row of the table: its line is
        # printed after the rank's other checks, and its failure exits 2
        odd_rank_check = ("odd-rank check {status}", range(2, 9), _odd_rank_fails, None)
        monkeypatch.setattr(verify, "CHECKS", [*verify.CHECKS, odd_rank_check])
        code, out, err = run(capsys, "verify", "--n-max", "3")
        assert code == 2
        assert out.splitlines()[6:] == ["n=2: top-degree evaluation OK", "n=2: odd-rank check OK",
                                        "n=3: 16 (J,K) pairs cross-checked over three engines",
                                        "n=3: graded dimensions 0..4 OK", "n=3: Bruhat subset criteria OK",
                                        "n=3: top-degree evaluation OK", "n=3: odd-rank check FAIL"]
        assert err.splitlines() == ["FAIL n=3: odd rank", "consistency failure: 1 verification check(s) failed"]

    def test_jobs_blocks_fill_each_memo_entry_once(self, monkeypatch):
        # memos cleared before each block, as in a fresh worker: the blocks of
        # --jobs 2 fill the normal-form and game memos no more than one block
        # of all pairs does, because each holds whole J | K classes
        memos = {name: getattr(module, name) for module, name in MEMOS}

        def filled(jobs):
            blocks, lines, fills = [], [], {"_normal_form": 0, "_game_sums": 0}

            def sweep(tasks):
                results = []
                for fn, n, block in tasks:
                    for memo in memos.values():
                        memo.cache_clear()
                    results.append(fn(n, block))
                    if fn is petring.verify._verify_chunk and n == 6:
                        blocks.append(block)
                        lines.extend(results[-1])
                        for name in fills:
                            fills[name] += memos[name].cache_info().currsize
                return results

            assert petring.verify._verify_ranks(6, jobs, sweep) == []
            return blocks, lines, fills

        one, lines_one, single = filled(1)
        two, lines_two, split = filled(2)
        assert split == single
        assert single["_game_sums"] == 3 ** 5
        # a passing block returns no lines, and nothing but failure lines
        assert lines_one == lines_two == []
        assert len(one) == 1 and len(two) == 2
        assert sorted(_range_pairs(6, one[0])) == sorted(_range_pairs(6, two[0]) + _range_pairs(6, two[1]))
        unions = [{jm | km for jm, km in _range_pairs(6, block)} for block in two]
        assert not unions[0] & unions[1]
        assert max(unions[0]) < min(unions[1])

    @pytest.mark.parametrize("fault, n_max, lines", [
        (_pair_raises, "5", [
            "FAIL n=4 J=2 K=1,3: expansion not symmetric",
            "FAIL n=4 J=1,3 K=2: injected",
            "FAIL n=5 J=2 K=1,3: expansion not symmetric",
            "FAIL n=5 J=1,3 K=2: injected",
        ]),
        (_move_weight_off_by_one, "4", [
            "FAIL n=3 J=2 K=2: engines disagree for J=2, K=2, first at L=1,2: diagram d=2, rewrite d=2, linalg d=1; "
            "diagram={'1,2': 2} rewrite={'1,2': 2} linalg={'1,2': 1}",
            "FAIL n=3 i=2: integral of g_2^2 is 2 by the run rule, 1 by the relations, Eulerian number 1",
            "FAIL n=4 J=2 K=2: engines disagree for J=2, K=2, first at L=1,2: diagram d=2, rewrite d=2, linalg d=1; "
            "diagram={'1,2': 2, '2,3': 1} rewrite={'1,2': 2, '2,3': 1} linalg={'1,2': 1, '2,3': 1}",
            "FAIL n=4 J=2 K=2,3: rewrite engine gave d = 7/2 for J=2, K=2,3, L=1,2,3, expected a non-negative integer",
            "FAIL n=4 J=2,3 K=2: expansion not symmetric",
            "FAIL n=4 i=2: integral of g_2^3 is 6 by the run rule, 4 by the relations, Eulerian number 4",
        ]),
        (step_tripled, "4", [
            "FAIL n=4 J=2 K=2: engines disagree for J=2, K=2, first at L=1,2: diagram d=1, rewrite d=1, linalg d=3; "
            "diagram={'1,2': 1, '2,3': 1} rewrite={'1,2': 1, '2,3': 1} linalg={'1,2': 3, '2,3': 3}",
            "FAIL n=4: graded dimensions do not match binomials",
            "FAIL n=4 i=2: integral of g_2^3 is 4 by the run rule, 12 by the relations, Eulerian number 4",
        ]),
        (_game_doubled, "4", [
            "FAIL n=4 J=2 K=2: engines disagree for J=2, K=2, first at L=1,2: diagram d=2, rewrite d=1, linalg d=1; "
            "diagram={'1,2': 2, '2,3': 2} rewrite={'1,2': 1, '2,3': 1} linalg={'1,2': 1, '2,3': 1}",
        ]),
    ], ids=["expansion-row", "run-step-weight", "oracle-step", "game-sums"])
    def test_failure_lines_independent_of_jobs(self, capsys, monkeypatch, fault, n_max, lines):
        # each check makes its failure lines in the worker that runs it, and
        # the pair sweep's come back in union-mask order either way
        fault(monkeypatch)
        two_cpus(monkeypatch)
        serial = run(capsys, "verify", "--n-max", n_max, "--jobs", "1")
        pooled = run(capsys, "verify", "--n-max", n_max, "--jobs", "2")
        assert serial[0] == pooled[0] == 2
        assert pooled[2] == serial[2]
        assert serial[2].splitlines() == lines + [f"consistency failure: {len(lines)} verification check(s) failed"]

    def test_refused_reduction_fails_its_checks_and_carries_on(self, capsys, monkeypatch):
        # without its 2*g_j^2 term no relation row eliminates g_j^2: the
        # graded dimensions and the top-degree check fail, naming (n, d) and
        # (n, i), and every later check still runs, under either --jobs
        own_row = oracle._own_row
        monkeypatch.setattr(oracle, "_own_row", lambda mono: {t: v for t, v in own_row(mono).items() if t != mono})
        two_cpus(monkeypatch)
        serial = run(capsys, "verify", "--n-max", "4", "--jobs", "1")
        pooled = run(capsys, "verify", "--n-max", "4", "--jobs", "2")
        assert serial == pooled
        code, out, err = serial
        assert code == 2
        assert "n=2: graded dimensions 0..3 FAIL" in out
        assert "n=4: top-degree evaluation FAIL" in out.splitlines()[-1]
        incomplete = "is neither square-free nor eliminated: the relations are incomplete here"
        assert f"FAIL n=2 d=2: monomial (2,) at rank 2, degree 2 {incomplete}" in err.splitlines()
        assert f"FAIL n=4 i=3: monomial (0, 0, 2) at rank 4, degree 2 {incomplete}" in err.splitlines()

    def test_graded_dimensions_by_the_certificate(self, monkeypatch):
        # the check builds no normal form and never calls quotient_dimension,
        # and a failing certificate gives the check's one mismatch line
        def refused(n, d):
            raise AssertionError("quotient_dimension called")

        monkeypatch.setattr(oracle, "quotient_dimension", refused)
        before = oracle._normal_form.cache_info()
        assert petring.verify._graded_dimensions(8, None) == []
        assert oracle._normal_form.cache_info() == before
        monkeypatch.setattr(oracle, "presentation_failures", lambda n, size: [(0, 1, 1)] * (size < 2))
        assert petring.verify._graded_dimensions(5, None) == ["n=5: graded dimensions do not match binomials"]

    def test_engine_error_of_any_type_fails_its_check(self, capsys, monkeypatch):
        # an error that is not a ConsistencyError, in the certificate at |S| = 1 and in the top-degree
        # power of g_2, fails its check on a line named with its type: exit 2, and no traceback
        certify, product = oracle.presentation_failures, ring._varpi_product

        def certify_raising(n, size):
            if size == 1:
                raise IndexError("planted")
            return certify(n, size)

        def product_raising(n, left, right):
            if right == {0b10: 1}:
                raise ValueError("planted")
            return product(n, left, right)

        monkeypatch.setattr(oracle, "presentation_failures", certify_raising)
        monkeypatch.setattr(ring, "_varpi_product", product_raising)
        code, out, err = run(capsys, "verify", "--n-max", "3")
        assert code == 2
        assert {"n=2: graded dimensions 0..3 FAIL", "n=3: top-degree evaluation FAIL"} <= set(out.splitlines())
        assert err.splitlines() == ["FAIL n=2 d=3: IndexError: planted", "FAIL n=3 d=3: IndexError: planted",
                                    "FAIL n=3 i=2: ValueError: planted",
                                    "consistency failure: 3 verification check(s) failed"]

    def test_chunk_folds_each_J_once(self, monkeypatch):
        # a block expanded in (J, K) order: the rewrite folds each J once over
        # one prefix memo, one run-rule step per nonempty K, 4^5 - 2^5 in all
        # (one step per member of each K, 2560, pair by pair)
        steps = []
        step = ring._varpi_times_generator
        monkeypatch.setattr(ring, "_varpi_times_generator", lambda terms, i, n: steps.append(i) or step(terms, i, n))
        assert petring.verify._verify_chunk(6, range(32)) == []
        assert len(steps) == 4 ** 5 - 2 ** 5

    def test_chunk_takes_one_run_step_per_transition(self, monkeypatch):
        # on fresh memos, the rewrite of all pairs at rank 6 searches each
        # run once per (i, S) of the transition table it fills
        calls = []
        run_step = ring.run_step
        monkeypatch.setattr(ring, "run_step", lambda mask, i, n: calls.append((i, mask)) or run_step(mask, i, n))
        assert petring.verify._verify_chunk(6, range(32)) == []
        assert 0 < len(calls) == len(set(calls)) == ring._transition.cache_info().currsize

    def test_jobs_blocks_balance_cost(self):
        # the pairs with |J| + |K| <= n - 1 carry the cost; the two blocks of
        # --jobs 2 hold about as many each, within one J | K class
        blocks = []

        def sweep(tasks):
            blocks[:] = [part for fn, n, part in tasks if fn is petring.verify._verify_chunk and n == 7]
            return [[] if fn is petring.verify._verify_chunk and n == 7 else fn(n, part) for fn, n, part in tasks]

        n = 7
        assert petring.verify._verify_ranks(n, 2, sweep) == []
        costs = [sum(jm.bit_count() + km.bit_count() < n for jm, km in _range_pairs(n, block)) for block in blocks]
        assert len(costs) == 2
        classes: dict[int, int] = {}
        for jm in range(1 << (n - 1)):
            for km in range(1 << (n - 1)):
                classes[jm | km] = classes.get(jm | km, 0) + (jm.bit_count() + km.bit_count() < n)
        assert abs(costs[0] - costs[1]) <= max(classes.values())


def _range_pairs(n, unions):
    """The (J, K) mask pairs of rank n whose J | K is in ``unions``."""
    return [(jm, km) for jm in range(1 << (n - 1)) for km in range(1 << (n - 1)) if jm | km in unions]


def _failing_after(count):
    """The table's per-J rewrite kernel, raising ConsistencyError in place of
    its pair number ``count``, counted over every admitted pair, zero
    products included, in the order the table asks for them."""
    rewrite_rows, pairs = ring.rewrite_rows, itertools.count()

    def failing(n, J, ks):
        for K in ks:
            if next(pairs) == count:
                raise ConsistencyError("injected")
            yield from rewrite_rows(n, J, [K])

    return failing


class TestTable:
    def test_contains_known_row(self, capsys):
        code, out, _ = run(capsys, "table", "-n", "4")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {"n": "4", "J": "1", "K": "2", "L": "1,2", "d": "2"} in rows

    def test_rank_two_has_no_square_row(self, capsys):
        _, out, _ = run(capsys, "table", "-n", "2")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all({r["J"], r["K"]} <= {"-", "1"} for r in rows)
        assert not any(r["J"] == "1" and r["K"] == "1" for r in rows)

    def test_filtered_golden(self, capsys):
        code, out, _ = run(capsys, "table", "-n", "10", "--J", "1,3,5,6,7", "--K", "3,6,8")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["d"] for r in rows] == ["3456", "24", "240"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_existing_path_that_is_not_a_regular_file_refused(self, capsys, tmp_path):
        # the finished table is moved over --out, which would put a regular
        # file in place of a FIFO: refused before any work, the FIFO kept
        path = tmp_path / "table3.csv"
        os.mkfifo(path)
        code, out, err = run(capsys, "table", "-n", "3", "--out", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: argument --out: {str(path)!r} is not a regular file\n"
        assert path.is_fifo() and [p.name for p in tmp_path.iterdir()] == ["table3.csv"]
        # nor is the FIFO opened as a table to read, which would block
        code, out, err = run(capsys, "expand", "-n", "3", "--cached", str(path))
        assert (code, out, err) == (1, "", f"error: argument --cached: {str(path)!r} is not a regular file\n")

    def test_closed_pipe_exits_1_without_a_traceback(self):
        # `petring table -n 9 | head -1`: stdout is closed after one line,
        # while most of the table (1.9 MB) is still to be written
        env = {**os.environ, "PYTHONPATH": str(Path(petring.cli.__file__).parents[1])}
        with subprocess.Popen([sys.executable, "-m", "petring", "table", "-n", "9"], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"n,J,K,L,d\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (1, b"")

    def test_cells_quoted_as_csv_quotes_them(self):
        # a subset cell is quoted exactly when it holds a comma: at every n <= 10 each line is csv.writer's, and
        # each cell, without its trailing comma, reads back through csv.reader, as cli._read_table reads it, as
        # one field: its subset
        for n in range(1, 11):
            masks = range(1 << (n - 1))
            fh = io.StringIO()
            assert petring.table._write_table(fh, n, "csv", [(0, [(0, [(L, 1) for L in masks])])]) == len(masks)
            lines = fh.getvalue().splitlines(keepends=True)[1:]
            for L, line in zip(masks, lines, strict=True):
                subset, written = IndexSet.from_mask(n, L).format(), io.StringIO()
                csv.writer(written, lineterminator="\n").writerow([n, "-", "-", subset, 1])
                assert line == written.getvalue(), line
                cell = line[len(f"{n},-,-,"):-len(",1\n")]
                assert list(csv.reader([cell])) == [[subset]], line

    def test_out_file_and_cache(self, capsys, tmp_path):
        path = tmp_path / "table4.csv"
        code, _, _ = run(capsys, "table", "-n", "4", "--out", str(path))
        assert code == 0 and path.exists()
        code, out, _ = run(capsys, "expand", "-n", "4", "-J", "1", "-K", "2",
                           "--cached", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "cached"
        assert data["terms"] == [{"L": [1, 2], "coeff": "2"}]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failing_table_keeps_existing_out(self, capsys, monkeypatch, tmp_path, fmt):
        path = tmp_path / "table.out"
        path.write_bytes(b"an earlier table\n")
        monkeypatch.setattr(ring, "rewrite_rows", _failing_after(20))
        code, out, err = run(capsys, "table", "-n", "4", "--format", fmt, "--out", str(path))
        assert code == 2
        assert "injected" in err
        assert path.read_bytes() == b"an earlier table\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.out"]

    def test_tail_refusal_keeps_existing_out(self, capsys, monkeypatch, tmp_path):
        # a run step that always moves to column 1 leaves the support of
        # J | K: the rewrite's own tail refuses the term, and the table
        # fails before it replaces --out
        wrap_run_step(monkeypatch, to_column_one)
        path = tmp_path / "table5.csv"
        path.write_bytes(b"an earlier table\n")
        code, out, err = run(capsys, "table", "-n", "5", "--out", str(path))
        assert code == 2
        assert out == ""
        assert "consistency failure: rewrite engine gave a term on L=1 for J=-, K=2, outside the L" in err
        assert path.read_bytes() == b"an earlier table\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table5.csv"]

    def test_csv_rows_stream_to_stdout(self, capsys, monkeypatch):
        # rows are written one J block at a time, not after the last pair, and
        # the block of a failing pair still gives every row before that pair
        monkeypatch.setattr(ring, "rewrite_rows", _failing_after(20))
        code, out, _ = run(capsys, "table", "-n", "4")
        assert code == 2
        assert out.startswith("n,J,K,L,d\n4,-,-,-,1\n")
        # pair 19 is J = 2, K = 1,2; pair 20 is J = 2, K = 3
        assert out.endswith('4,2,"1,2","1,2,3",2\n')

    def test_out_into_unwritable_directory_refused(self, capsys, monkeypatch, tmp_path):
        # the table is written to a partial file beside --out, new or not, so
        # its directory must be writable; os.access is patched, as a process
        # run as root passes any permission check
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: access(path, mode) and (path, mode) != (str(tmp_path), os.W_OK))
        new, existing = tmp_path / "new.csv", tmp_path / "existing.csv"
        existing.write_bytes(b"an earlier table\n")
        for out in (new, existing):
            assert run(capsys, "table", "-n", "3", "--out", str(out)) == (
                1, "", f"error: argument --out: directory of {str(out)!r} is not writable\n")
        assert [p.name for p in tmp_path.iterdir()] == ["existing.csv"]
        assert existing.read_bytes() == b"an earlier table\n"

    @pytest.mark.parametrize("target", ["file", "dangling"])
    def test_out_symbolic_link_refused(self, capsys, monkeypatch, tmp_path, target):
        # the move over --out would replace the link, not write its target, so a link to a file or to
        # nothing is refused before any work: the kernel raises at its first pair, and is never reached
        real = tmp_path / "real"
        real.mkdir()
        if target == "file":
            (real / "t.csv").write_bytes(b"an earlier table\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real / "t.csv")
        monkeypatch.setattr(ring, "rewrite_rows", _failing_after(0))
        assert run(capsys, "table", "-n", "3", "--out", str(link)) == (
            1, "", f"Error: --out {link} is a symbolic link\n")
        assert os.readlink(link) == str(real / "t.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real"]
        assert [p.read_bytes() for p in real.iterdir()] == ([b"an earlier table\n"] if target == "file" else [])

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "table5.csv"
        _, printed, _ = run(capsys, "table", "-n", "5")
        code, out, _ = run(capsys, "table", "-n", "5", "--out", str(path))
        assert code == 0
        assert path.read_text() == printed
        assert out == f"wrote {len(printed.splitlines()) - 1} rows to {path}\n"

    def test_cache_refuses_pair_left_out_by_filters(self, capsys, tmp_path):
        # the table holds |J| + |K| = 2 only; {1,2} * {2} = 2 * {1,2,3} is nonzero
        path = tmp_path / "t5.csv"
        assert run(capsys, "table", "-n", "5", "--degree", "2", "--out", str(path))[0] == 0
        code, out, err = run(capsys, "expand", "-n", "5", "-J", "1,2", "-K", "2", "--cached", str(path))
        assert code == 1
        assert out == ""
        assert "no rows for J=1,2 K=2" in err
        # |J| + |K| = 5 > n - 1: the product vanishes, so no rows is the answer
        code, out, _ = run(capsys, "expand", "-n", "5", "-J", "1,2", "-K", "2,3,4", "--cached", str(path))
        assert code == 0
        assert json.loads(out)["terms"] == []

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "-n", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 3
        assert {"J": [1], "K": [2], "L": [1, 2], "d": "2"} in data["rows"]


def _pair_rows(n, J, K):
    """The table rows of one pair by the single-pair engine, as CSV fields."""
    expansion = structure_constants_rewrite(J, K)
    return [[str(n), J.format(), K.format(), L.format(), str(expansion[L])]
            for L in sorted(expansion, key=lambda L: L.mask)]


def _table_filters(n):
    """Filter arguments of `table`: none, every --degree (empty tables past
    the top), and samples of --J, --K and --J with --K."""
    names = [S.format() for S in all_index_sets(n)]
    sample = names if n <= 5 else names[::7]
    yield []
    for degree in range(0, 2 * n):
        yield ["--degree", str(degree)]
    for j in sample:
        yield ["--J", j]
    for k in sample:
        yield ["--K", k]
    for j, k in zip(sample, reversed(sample)):
        yield ["--J", j, "--K", k]
    yield ["--J", names[-1], "--degree", str(n - 1)]


class TestTableAgreesWithSinglePairs:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_row(self, capsys, n):
        sets = list(all_index_sets(n))
        for argv in _table_filters(n):
            opts = dict(zip(argv[::2], argv[1::2]))
            expected = [
                row
                for J in sets if opts.get("--J", J.format()) == J.format()
                for K in sets if opts.get("--K", K.format()) == K.format()
                if int(opts.get("--degree", len(J) + len(K))) == len(J) + len(K)
                for row in _pair_rows(n, J, K)
            ]
            code, out, _ = run(capsys, "table", "-n", str(n), *argv)
            assert code == 0
            assert list(csv.reader(io.StringIO(out))) == [["n", "J", "K", "L", "d"]] + expected, argv
            code, out, _ = run(capsys, "table", "-n", str(n), "--format", "json", *argv)
            assert code == 0
            data = json.loads(out)
            assert data["n"] == n
            as_lists = [[list(IndexSet.parse(r[i], n).as_tuple()) for i in (1, 2, 3)] + [r[4]] for r in expected]
            assert [[r["J"], r["K"], r["L"], r["d"]] for r in data["rows"]] == as_lists, argv

    def test_kernel_under_every_filter(self, capsys, monkeypatch):
        # each (J, K list) that `table` hands the per-J kernel, over every filter, gives the
        # nonzero rewrite_row rows of that list, also where the first K's prefix is not memoized
        n, calls = 6, []
        kernel = ring.rewrite_rows

        def recorded(n, J, ks):
            calls.append((J, list(ks)))
            return kernel(n, J, calls[-1][1])

        monkeypatch.setattr(ring, "rewrite_rows", recorded)
        for argv in _table_filters(n):
            assert run(capsys, "table", "-n", str(n), *argv)[0] == 0
        assert any(ks and ks[0].bit_count() > 1 for _, ks in calls)  # the _fold recursion ran
        monkeypatch.undo()  # else rewrite_row below reaches `recorded`, which grows `calls` as it is read
        for J, ks in calls:
            assert list(kernel(n, J, ks)) == [(K, rewrite_row(n, J, K)) for K in ks if rewrite_row(n, J, K)]

    # every J has rows; the 16 J with |J| <= 2; none, as |J| + |K| = 6 > n - 1
    @pytest.mark.parametrize("argv, with_rows", [([], 32), (["--K", "1,2,3"], 16), (["--degree", "6"], 0)])
    def test_one_write_per_J_block(self, capsys, monkeypatch, tmp_path, argv, with_rows):
        # a CSV --out file is written once for the header and once per J that
        # has rows, each write holding that J's lines whole, counted through
        # a wrapped file
        files = []

        class Counted:
            def __init__(self, *args):
                self.fh, self.writes = open(*args), []
                files.append(self)

            def write(self, text):
                self.writes.append(text)
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(petring.table, "open", Counted, raising=False)
        path = tmp_path / "table6.csv"
        assert run(capsys, "table", "-n", "6", *argv, "--out", str(path))[0] == 0
        [counted] = files
        header, *blocks = counted.writes
        assert header == "n,J,K,L,d\n" and "".join(counted.writes) == path.read_text()
        js = [{row[1] for row in csv.reader(io.StringIO(block))} for block in blocks]
        assert all(len(j) == 1 for j in js)
        assert len(blocks) == len(set.union(set(), *js)) == with_rows

    @pytest.mark.parametrize("argv", [[], ["--degree", "2"], ["--J", "1,3"]])
    def test_raw_output_bytes(self, capsys, argv):
        # the raw output, quoting included (csv.reader reads "1" and 1 alike),
        # against csv.writer's text and json.dumps of the single-pair rows
        n = 6
        sets = list(all_index_sets(n))
        expected = [
            row
            for J in sets if argv[:1] != ["--J"] or J.format() == argv[1]
            for K in sets if argv[:1] != ["--degree"] or len(J) + len(K) == int(argv[1])
            for row in _pair_rows(n, J, K)
        ]
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([["n", "J", "K", "L", "d"]] + expected)
        assert f'{n},"1,3",' in text.getvalue()  # a quoted cell is among the rows
        assert run(capsys, "table", "-n", str(n), *argv) == (0, text.getvalue(), "")
        rows = [dict(zip("JKL", (list(IndexSet.parse(r[i], n).as_tuple()) for i in (1, 2, 3))), d=r[4]) for r in expected]
        text = json.dumps({"n": n, "rows": rows}, separators=(", ", ": ")) + "\n"
        assert run(capsys, "table", "-n", str(n), "--format", "json", *argv) == (0, text, "")


class TestTableCap:
    def test_refused_before_computing(self, capsys, monkeypatch):
        def no_computation(*args):
            raise AssertionError("table computed a refused request")

        monkeypatch.setattr(ring, "rewrite_rows", no_computation)
        code, out, err = run(capsys, "table", "-n", "12")
        assert code == 1
        assert out == ""
        assert "4194304 (J, K) pairs" in err
        assert f"cap of {petring.cli.MAX_TABLE_PAIRS}" in err
        assert petring.cli.MAX_TABLE_PAIRS == 4**10

    def test_full_rank_eleven_is_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(ring, "rewrite_rows", lambda n, J, ks: iter(()))
        assert run(capsys, "table", "-n", "11")[0] == 0

    def test_degree_filter_visits_only_its_pairs(self, capsys):
        # C(26, 3) = 2600 pairs, all nonzero at n = 14
        code, out, _ = run(capsys, "table", "-n", "14", "--degree", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len({(r["J"], r["K"]) for r in rows}) == 2600
        assert {"n": "14", "J": "1,2", "K": "2", "L": "1,2,3", "d": "2"} in rows

    def test_j_filter_at_top_rank(self, capsys):
        # |J| = 3: the products with the 2^15 - 105 - 15 - 1 sets K of size <= 12 are nonzero
        code, out, _ = run(capsys, "table", "-n", "16", "--J", "1,2,3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len({r["K"] for r in rows}) == 32647
        J, K = IndexSet.of(16, [1, 2, 3]), IndexSet.of(16, [3, 9, 15])
        assert [[r["n"], r["J"], r["K"], r["L"], r["d"]] for r in rows if r["K"] == "3,9,15"] == _pair_rows(16, J, K)


def _cached_and_rewrite(capsys, path, n, j, k):
    """The terms of `expand --cached` and of `--method rewrite` for one pair."""
    code, out, err = run(capsys, "expand", "-n", str(n), "-J", j, "-K", k, "--cached", str(path))
    assert code == 0, err
    cached = json.loads(out)
    assert cached["method"] == "cached"
    code, out, _ = run(capsys, "expand", "-n", str(n), "-J", j, "-K", k, "--method", "rewrite")
    assert code == 0
    return cached["terms"], json.loads(out)["terms"]


def _counting_open(counter):
    """An ``open`` that counts in counter[0] the lines decoded from its files:
    each line read from a text file, each ``decode`` of a line read from a
    binary one."""

    class Line(bytes):
        def decode(self, *args, **kwargs):
            counter[0] += 1
            return super().decode(*args, **kwargs)

    class File:
        def __init__(self, fh):
            self.fh = fh

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __iter__(self):
            return self

        def __next__(self):
            line = self.readline()
            if not line:
                raise StopIteration
            return line

        def readline(self):
            line = self.fh.readline()
            if isinstance(line, bytes):
                return Line(line)
            counter[0] += bool(line)
            return line

    return lambda *args, **kwargs: File(open(*args, **kwargs))


class TestCachedLookup:
    @pytest.fixture(scope="class")
    def table5(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cache") / "table5.csv"
        assert main(["table", "-n", "5", "--out", str(path)]) == 0
        return path

    def test_every_pair(self, capsys, table5):
        for J in all_index_sets(5):
            for K in all_index_sets(5):
                cached, rewrite = _cached_and_rewrite(capsys, table5, 5, J.format(), K.format())
                assert cached == rewrite, (J, K)

    @pytest.mark.parametrize("j, k", [
        ("-", "-"),          # the first pair
        ("1,2,3,4", "-"),    # the last pair with rows
        ("1", "2"),          # prefix-confusable with the next three
        ("1", "2,3"),
        ("1,2", "3"),
        ("2", "1"),
    ])
    def test_explicit_pairs(self, capsys, table5, j, k):
        cached, rewrite = _cached_and_rewrite(capsys, table5, 5, j, k)
        assert cached == rewrite != []

    def test_two_digit_members(self, capsys, tmp_path):
        # K = 10 must not be read as K = 1, whose rows the filter left out
        path = tmp_path / "t11.csv"
        assert run(capsys, "table", "-n", "11", "--K", "10", "--out", str(path))[0] == 0
        cached, rewrite = _cached_and_rewrite(capsys, path, 11, "1", "10")
        assert cached == rewrite != []
        code, out, err = run(capsys, "expand", "-n", "11", "-J", "1", "-K", "1", "--cached", str(path))
        assert code == 1
        assert out == ""
        assert "no rows for J=1 K=1" in err

    def test_zero_product_stops_after_its_J_block(self, capsys, tmp_path):
        # a line of another rank after the last row: a zero product on an
        # early J stops before it, one whose scan reaches it still refuses
        path = tmp_path / "t5.csv"
        assert run(capsys, "table", "-n", "5", "--out", str(path))[0] == 0
        with open(path, "a") as fh:
            fh.write("4,-,-,-,1\n")
        code, out, err = run(capsys, "expand", "-n", "5", "-J", "1", "-K", "1,2,3,4", "--cached", str(path))
        assert code == 0, err
        assert json.loads(out)["terms"] == []
        assert petring.cli._read_table(str(path), 5, IndexSet.of(5, [1, 2]), IndexSet.of(5, [1, 3, 4])) == []
        code, out, err = run(capsys, "expand", "-n", "5", "-J", "1,2,3,4", "-K", "1", "--cached", str(path))
        assert (code, out) == (1, "")
        assert err == f"Error: cache {path} is for rank 4, not 5\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_refuses_table_of_other_rank(self, capsys, tmp_path, fmt):
        path = tmp_path / f"t4.{fmt}"
        assert run(capsys, "table", "-n", "4", "--format", fmt, "--out", str(path))[0] == 0
        code, out, err = run(capsys, "expand", "-n", "5", "-J", "1", "-K", "2", "--cached", str(path))
        assert (code, out) == (1, "")
        assert err == f"Error: cache {path} is for rank 4, not 5\n"

    @pytest.mark.parametrize("rank, shown", [("5", '"5"'), (True, "true"), (5.0, "5.0")],
                             ids=["string", "bool", "float"])
    def test_json_rank_that_is_not_an_integer_refused(self, capsys, tmp_path, rank, shown):
        # refused before the ranks are compared, which would call "5" another rank and take 5.0 for 5
        path = tmp_path / "t5.json"
        assert run(capsys, "table", "-n", "5", "--format", "json", "--out", str(path))[0] == 0
        data = json.loads(path.read_text())
        data["n"] = rank
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "expand", "-n", "5", "-J", "1", "-K", "2", "--cached", str(path))
        assert (code, out) == (1, "")
        assert err == f"Error: cache {path} is malformed: TypeError: n is {shown}, not an integer\n"

    def test_json_table(self, capsys, tmp_path):
        path = tmp_path / "t5.json"
        assert run(capsys, "table", "-n", "5", "--format", "json", "--out", str(path))[0] == 0
        for j, k in [("-", "-"), ("1", "2,3"), ("1,2", "3"), ("2,3", "1,2")]:
            cached, rewrite = _cached_and_rewrite(capsys, path, 5, j, k)
            assert cached == rewrite != []

    @pytest.mark.parametrize("name", ["t5.csv", "t5"])
    def test_json_table_under_another_name(self, capsys, tmp_path, name):
        # a table whose first byte is "{" is read as JSON whatever its name
        path = tmp_path / name
        assert run(capsys, "table", "-n", "5", "--format", "json", "--out", str(path))[0] == 0
        for j, k in [("-", "-"), ("1", "1"), ("1", "2,3"), ("1,2", "3"), ("2,3", "1,2")]:
            cached, rewrite = _cached_and_rewrite(capsys, path, 5, j, k)
            assert cached == rewrite != []

    @pytest.mark.parametrize("lead", ["\n", "  \n\t"], ids=["newline", "mixed"])
    @pytest.mark.parametrize("name", ["t5.csv", "t5"])
    def test_json_table_after_whitespace(self, capsys, tmp_path, name, lead):
        # the sniff skips the whitespace that JSON allows before "{"
        path = tmp_path / name
        assert run(capsys, "table", "-n", "5", "--format", "json", "--out", str(path))[0] == 0
        path.write_text(lead + path.read_text())
        for j, k in [("-", "-"), ("1", "1"), ("1", "2,3"), ("1,2", "3"), ("2,3", "1,2")]:
            cached, rewrite = _cached_and_rewrite(capsys, path, 5, j, k)
            assert cached == rewrite != []

    @pytest.mark.parametrize("header", [False, True], ids=["empty", "header-only"])
    def test_table_without_rows(self, capsys, tmp_path, header):
        path = tmp_path / "t4.csv"
        if header:
            assert run(capsys, "table", "-n", "4", "--degree", "99", "--out", str(path))[0] == 0
            assert path.read_text() == "n,J,K,L,d\n"
        else:
            path.write_bytes(b"")
        code, out, err = run(capsys, "expand", "-n", "4", "-J", "1", "-K", "2", "--cached", str(path))
        assert (code, out) == (1, "")
        assert err == f"Error: cache {path} has no rows for J=1 K=2, a nonzero product\n"
        # |J| + |K| = 4 > n - 1: the product vanishes
        code, out, err = run(capsys, "expand", "-n", "4", "-J", "1,2", "-K", "2,3", "--cached", str(path))
        assert (code, err) == (0, "")
        assert '"terms": []' in out

    @pytest.mark.parametrize("argv", list(_table_filters(6)), ids=lambda argv: " ".join(argv) or "full")
    def test_read_table_is_a_full_parse_filtered(self, tmp_path, argv):
        # every pair, so also pairs absent before the first block, between
        # blocks and after the last row
        path = tmp_path / "t6.csv"
        assert main(["table", "-n", "6", *argv, "--out", str(path)]) == 0
        by_pair: dict[tuple[str, str], list[list[str]]] = {}
        with open(path, newline="") as fh:
            for _, j, k, *fields in list(csv.reader(fh))[1:]:
                by_pair.setdefault((j, k), []).append(fields)
        sets = list(all_index_sets(6))
        for J in sets:
            for K in sets:
                expected = by_pair.get((J.format(), K.format()), [])
                assert petring.cli._read_table(str(path), 6, J, K) == expected, (J, K)

    def test_lines_decoded_grow_with_the_log_of_the_file(self, monkeypatch, tmp_path):
        path = tmp_path / "t7.csv"
        assert main(["table", "-n", "7", "--out", str(path)]) == 0
        bound = 2 * math.ceil(math.log2(path.stat().st_size)) + 2
        counter = [0]
        monkeypatch.setattr(petring.cli, "open", _counting_open(counter), raising=False)
        sets = list(all_index_sets(7))
        for J in sets:
            for K in sets:
                counter[0] = 0
                rows = petring.cli._read_table(str(path), 7, J, K)
                assert counter[0] <= bound + len(rows), (J, K, counter[0])


def _edited_table(capsys, tmp_path, fmt, L, d):
    """A rank-4 table whose one row for J = {1}, K = {2}, d = 2 on L = {1,2},
    is replaced by the given L and d fields."""
    path = tmp_path / f"t4.{fmt}"
    assert run(capsys, "table", "-n", "4", "--format", fmt, "--out", str(path))[0] == 0
    if fmt == "json":
        data = json.loads(path.read_text())
        row = next(r for r in data["rows"] if (r["J"], r["K"]) == ([1], [2]))
        assert (row["L"], row["d"]) == ([1, 2], "2")
        row["L"], row["d"] = L, d
        path.write_text(json.dumps(data))
    else:
        lines = path.read_text().splitlines(keepends=True)
        index = lines.index('4,1,2,"1,2",2\n')
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([4, "1", "2", ",".join(map(str, L)), d])
        lines[index] = buf.getvalue()
        path.write_text("".join(lines))
    return path


class TestCachedRowsChecked:
    """A cached row goes through the checked tail of the engines, and a table
    that does not parse is refused with one line naming it."""

    @pytest.mark.parametrize("out_fmt", ["json", "csv"])
    @pytest.mark.parametrize("table_fmt", ["csv", "json"])
    @pytest.mark.parametrize("L, d, message", [
        ([1, 2], "-3", "cached engine gave d = -3 for J=1, K=2, L=1,2, expected a non-negative integer"),
        ([2, 3], "2", "cached engine gave a term on L=2,3 for J=1, K=2, outside the L containing J | K"),
    ], ids=["negative", "off-support"])
    def test_bad_row_refused(self, capsys, tmp_path, table_fmt, out_fmt, L, d, message):
        path = _edited_table(capsys, tmp_path, table_fmt, L, d)
        code, out, err = run(capsys, "expand", "-n", "4", "-J", "1", "-K", "2", "--cached", str(path),
                             "--format", out_fmt)
        assert code == 2
        assert out == ""
        assert err.startswith(f"consistency failure: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("table_fmt", ["csv", "json"])
    def test_repeated_row_refused(self, capsys, tmp_path, table_fmt):
        # the one row for J = K = {2}, d = 1 on L = {1,2}, written twice
        path = tmp_path / f"t4.{table_fmt}"
        assert run(capsys, "table", "-n", "4", "--format", table_fmt, "--out", str(path))[0] == 0
        if table_fmt == "json":
            data = json.loads(path.read_text())
            row = {"J": [2], "K": [2], "L": [1, 2], "d": "1"}
            data["rows"].insert(data["rows"].index(row), row)
            path.write_text(json.dumps(data))
        else:
            text = path.read_text()
            assert text.count('4,2,2,"1,2",1\n') == 1
            path.write_text(text.replace('4,2,2,"1,2",1\n', '4,2,2,"1,2",1\n' * 2))
        code, out, err = run(capsys, "expand", "-n", "4", "-J", "2", "-K", "2", "--cached", str(path))
        assert code == 2
        assert out == ""
        assert err == f"consistency failure: cache {path} has two rows for J=2 K=2 L=1,2\n"

    @pytest.mark.parametrize("out_fmt", ["json", "csv"])
    @pytest.mark.parametrize("table_fmt, d", [("csv", "0"), ("csv", "-0"), ("json", "0"), ("json", 0)],
                             ids=["csv", "csv-minus-zero", "json", "json-integer"])
    def test_zero_row_refused(self, capsys, tmp_path, table_fmt, d, out_fmt):
        # J = K = {2} has two rows, d = 1 on L = {1,2} and on L = {2,3}: a d of
        # 0 on the second is named, not dropped from a row that looks whole
        path = tmp_path / f"t4.{table_fmt}"
        assert run(capsys, "table", "-n", "4", "--format", table_fmt, "--out", str(path))[0] == 0
        if table_fmt == "json":
            data = json.loads(path.read_text())
            data["rows"][data["rows"].index({"J": [2], "K": [2], "L": [2, 3], "d": "1"})]["d"] = d
            path.write_text(json.dumps(data))
        else:
            text = path.read_text()
            assert text.count('4,2,2,"2,3",1\n') == 1
            path.write_text(text.replace('4,2,2,"2,3",1\n', f'4,2,2,"2,3",{d}\n'))
        code, out, err = run(capsys, "expand", "-n", "4", "-J", "2", "-K", "2", "--cached", str(path),
                             "--format", out_fmt)
        assert (code, out) == (2, "")
        assert err == f"consistency failure: cache {path} has a row with d = 0 for J=2 K=2 L=2,3\n"

    @pytest.mark.parametrize("table_fmt, L, d, text", [
        ("csv", [1, 2], "x", None),
        ("csv", [1, 9], "2", None),
        ("json", [1, 2], "x", None),
        ("json", [1, 9], "2", None),
        ("json", [1, 2], 2.5, None),
        ("json", None, None, '{"n": 4}\n'),
        ("json", None, None, "not json\n"),
        ("csv", [1, 2], "2_0", None),
        ("json", [1, 2], "\u0662", None),
    ], ids=["csv-d", "csv-L", "json-d", "json-L", "json-float-d", "json-no-rows", "not-json", "csv-underscored-d",
            "json-non-ascii-d"])
    def test_malformed_cache_refused(self, capsys, tmp_path, table_fmt, L, d, text):
        if text is None:
            path = _edited_table(capsys, tmp_path, table_fmt, L, d)
        else:
            path = tmp_path / "t4.json"
            path.write_text(text)
        code, out, err = run(capsys, "expand", "-n", "4", "-J", "1", "-K", "2", "--cached", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"Error: cache {path} is malformed: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("line, error", [
        (b"4,x,-,-,1\n", "ValueError: cannot parse subset 'x'"),
        (b'4,"2,1",-,-,1\n', "ValueError: subset '2,1' must list distinct integers in ascending order"),
        (b"4,1\n", "ValueError: not enough values to unpack"),
        (b"4,\xff,-,-,1\n", "UnicodeDecodeError: "),
    ], ids=["J-cell", "unsorted-J", "short", "not-utf8"])
    def test_probe_that_does_not_parse_refused(self, capsys, tmp_path, line, error):
        # every row of the file is the bad line, so the bisection's first probe reads one
        path = tmp_path / "t4.csv"
        path.write_bytes(b"n,J,K,L,d\n" + line * 50)
        code, out, err = run(capsys, "expand", "-n", "4", "-J", "1", "-K", "2", "--cached", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"Error: cache {path} is malformed: {error}")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestGroup:
    def test_showcase_subset(self, capsys):
        code, out, _ = run(capsys, "group", "-n", "10", "-J", "1,2,4,5,6,9")
        assert code == 0
        assert "w_J = [3,2,1,7,6,5,4,8,10,9]" in out
        assert "m_J = 12" in out
        assert "factor ranks = [3, 4, 2]" in out

    def test_empty_subset(self, capsys):
        code, out, _ = run(capsys, "group", "-n", "3", "-J", "-")
        assert code == 0
        assert "w_J = [1,2,3]" in out
        assert "m_J = 1" in out

    def test_derived_word(self, capsys):
        _, out, _ = run(capsys, "group", "-n", "8", "-J", "1,4,5,7")
        assert "w_J = [2,1,3,6,5,4,8,7]" in out


class TestExitContract:
    """The exit codes and streams of `python -m petring`, whose script flushes both streams and leaves by
    os._exit: output written before the exit is all there, and a run that exits 0 writes nothing to stderr."""

    def test_usage_error_exits_1_with_one_stderr_line(self):
        proc = python("-m", "petring", "expand", "-n", "0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: rank must be in [1, 16], got 0\n")

    def test_cached_row_with_d_zero_exits_2(self, tmp_path):
        path = tmp_path / "t4.csv"
        proc = python("-m", "petring", "table", "-n", "4", "--out", str(path))
        assert (proc.returncode, proc.stderr) == (0, "")
        text = path.read_text()
        path.write_text(text.replace('4,2,2,"2,3",1\n', '4,2,2,"2,3",0\n'))
        proc = python("-m", "petring", "expand", "-n", "4", "-J", "2", "-K", "2", "--cached", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"consistency failure: cache {path} has a row with d = 0 for J=2 K=2 L=2,3\n"

    def test_verify_into_a_closed_pipe_exits_1_without_a_traceback(self):
        # each line written as it is printed; the ranks above the first take some tens of
        # milliseconds at n = 7, so the closed pipe is met by a later line
        env = {**os.environ, "PYTHONUNBUFFERED": "1", "PYTHONPATH": str(Path(petring.cli.__file__).parents[1])}
        with subprocess.Popen([sys.executable, "-m", "petring", "verify", "--n-max", "7"], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"n=1: 1 (J,K) pairs cross-checked over three engines\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["table", "-n", "7"], ["expand", "-n", "5", "-J", "1", "-K", "2"],
                                      ["verify", "--n-max", "2"]], ids=["table", "expand", "verify"])
    def test_a_full_stdout_exits_1_with_an_empty_stderr(self, argv, unbuffered):
        # `petring ... > /dev/full`: a block-buffered stdout fails at a large write or at the script's flush,
        # an unbuffered one at the first print; each ends as a closed pipe does
        env = {**self._buffered(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "petring", *argv], env=env, stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_an_os_error_off_stdout_exits_1_with_one_error_line(self):
        # an OSError from anything but stdout, here planted in the kernel, is named in one line
        planted = ("from petring import ring\n"
                   "from petring.cli import entry\n"
                   "def rows(n, J, ks):\n"
                   "    raise OSError(5, 'planted')\n"
                   "ring.rewrite_rows = rows\n"
                   "entry()")
        proc = subprocess.run([sys.executable, "-c", planted, "table", "-n", "4"], env=self._buffered(),
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "n,J,K,L,d\n", "Error: [Errno 5] planted\n")

    @pytest.mark.parametrize("argv", [
        ["group", "-n", "3", "-J", "1"],
        GOLDEN,
        ["diagrams", "-n", "10", "-J", "1,3,5,6,7", "-K", "3,6,8", "-L", "1,2,3,4,5,6,7,8"],
        ["verify", "--n-max", "2"],
        ["table", "-n", "4", "--out", "{out}"],
    ], ids=["group", "expand", "diagrams", "verify", "table"])
    def test_stdout_closed_at_start_exits_1_before_any_work(self, tmp_path, argv):
        # `petring ... >&-`: with fd 1 closed, sys.stdout is None and a print writes nothing; the command
        # exits 1, as into a pipe closed early, with an empty stderr, and `table --out` leaves no file
        argv = [arg.format(out=tmp_path / "t4.csv") for arg in argv]
        proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", sys.executable, "-m", "petring", *argv],
                              env=self._buffered(), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, last", [
        (["verify", "--n-max", "3"], "all checks passed"),
        (["--help"], "show this help message and exit"),
        ([*GOLDEN, "--format", "csv"], "10,\"1,3,5,6,7\",\"3,6,8\",all,\"1,3,4,5,6,7,8,9\",240"),
        (["group", "-n", "5", "-J", "1,2"], "v_J = [2,3,1,4,5]"),
    ], ids=["verify", "help", "expand", "group"])
    def test_exit_0_keeps_all_output_and_an_empty_stderr(self, argv, last):
        # stdout to a pipe is block-buffered here: all of it, whose last line ends as given, is
        # flushed before os._exit
        proc = subprocess.run([sys.executable, "-m", "petring", *argv], env=self._buffered(), capture_output=True,
                              text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.endswith("\n") and proc.stdout.splitlines()[-1].endswith(last)

    def test_exit_2_keeps_the_rows_written_before_the_failure(self):
        # `table -n 4` to a block-buffered stdout, with the kernel raising at J = {1,2}: the blocks of
        # J = -, 1 and 2 are written before the consistency failure, and the script flushes them
        planted = ("from petring import ring\n"
                   "from petring.cli import entry\n"
                   "from petring.errors import ConsistencyError\n"
                   "kernel = ring.rewrite_rows\n"
                   "def rows(n, J, ks):\n"
                   "    if J == 3:\n"
                   "        raise ConsistencyError('planted')\n"
                   "    return kernel(n, J, ks)\n"
                   "ring.rewrite_rows = rows\n"
                   "entry()")
        proc = subprocess.run([sys.executable, "-c", planted, "table", "-n", "4"], env=self._buffered(),
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (2, "consistency failure: planted\n")
        whole = python("-m", "petring", "table", "-n", "4").stdout
        assert proc.stdout == whole[:whole.index('4,"1,2",')] and proc.stdout.count("\n") > 10

    @staticmethod
    def _buffered():
        """This environment without PYTHONUNBUFFERED, with this checkout's petring and help at 80 columns."""
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        return {**env, "COLUMNS": "80", "PYTHONPATH": str(Path(petring.cli.__file__).parents[1])}
