"""Byte identity: the lines of pinned.txt tagged cheap, run in-process through main against their digests, and
the guards that keep pinned.txt the one place where a digest is written."""

import hashlib
import re
import sys

import pytest

import pinned
from helpers import run

LINES = pinned.read()
CHEAP = [line for line in LINES if "cheap" in line.tags]
HELP = [line for line in CHEAP if "help" in line.tags]
LOOKUPS = [line for line in CHEAP if "--cached" in line.commands[0]]  # expand -n N ... --cached NAME.FORMAT
OUTPUTS = [line for line in CHEAP if line not in HELP + LOOKUPS]
ROOT = pinned.MANIFEST.parents[1]


def _checked(capsys, line: pinned.Line) -> str:
    code, out, err = run(capsys, *line.commands[0])
    assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", line.digest), line.where
    return out


@pytest.mark.parametrize("line", OUTPUTS, ids=[" ".join(line.commands[0]) for line in OUTPUTS])
def test_output_is_pinned(capsys, line):
    _checked(capsys, line)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the help digests are of Python 3.11's argparse")
@pytest.mark.parametrize("line", HELP, ids=[" ".join(line.commands[0][:-1]) or "petring" for line in HELP])
def test_help_is_pinned(capsys, monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    _checked(capsys, line)


@pytest.mark.parametrize("line", LOOKUPS, ids=[f"{line.commands[0][-1].split('.')[1]}-{line.commands[0][2]}"
                                               for line in LOOKUPS])
def test_cached_lookup_is_pinned(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)
    writer = next(other for other in LINES if other.keep == line.commands[0][-1])
    (tmp_path / writer.keep).write_text(_checked(capsys, writer))
    _checked(capsys, line)


def test_verify_with_spawned_workers_is_pinned(monkeypatch, tmp_path):
    # `verify --jobs 2` run as the script runs it, in a fresh interpreter that forks one worker; its os.cpu_count is
    # patched, so this runs on one CPU too
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))  # for the runner's subprocesses
    for line in (line for line in CHEAP if "jobs2" in line.tags):
        assert pinned.check(line, "jobs2", tmp_path) == "", line.where


def test_runner_takes_a_relative_pythonpath(monkeypatch, tmp_path):
    # PYTHONPATH=src from the repo root, as tier-1 runs: the runs, which work in another directory, still find petring
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("PYTHONPATH", "src")
    line = next(line for line in OUTPUTS if line.commands[0][0] == "group")
    assert pinned.check(line, "", tmp_path) == "", line.where


def test_runner_names_a_line_whose_digest_is_wrong(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))  # for the runner's subprocesses
    line = next(line for line in OUTPUTS if line.commands[0][0] == "group")
    digit = "1" if line.digest.endswith("0") else "0"
    (tmp_path / "one.txt").write_text(f"{line.digest[:-1]}{digit} : {' '.join(line.commands[0])}\n")
    assert pinned.main(tmp_path / "one.txt") == 1
    assert capsys.readouterr().out == f"one.txt:1 plain: FAIL, digest {line.digest}\n"


def test_runner_names_a_run_that_raises(capsys, monkeypatch, tmp_path):
    # the first line's run exits 1 with an error, and the second's out run, whose --help exits before --out is
    # read, writes no file for the runner to read; neither stops the runner
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))  # for the runner's subprocesses
    (tmp_path / "one.txt").write_text(f"{'0' * 64} : expand -n 3 -J 1 -K 1 --cached absent.csv\n"
                                      f"{'0' * 64} out : table --help\n")
    assert pinned.main(tmp_path / "one.txt") == 1
    exits, plain, out = capsys.readouterr().out.splitlines()
    assert exits.startswith("one.txt:1 plain: FAIL, exit code 1, stderr \"error: argument --cached: ")
    assert plain.startswith("one.txt:2 plain: FAIL, digest ")
    assert out.startswith("one.txt:2 out: FAIL, FileNotFoundError: ")


def test_manifest_line_that_does_not_parse_is_named(tmp_path):
    (tmp_path / "one.txt").write_text(f"# a comment\n\n{'0' * 64} cheap verify --n-max 3\n")
    with pytest.raises(ValueError, match=r"^one\.txt:3: not DIGEST TAG \.\.\. : ARGUMENTS"):
        pinned.read(tmp_path / "one.txt")


def test_manifest_is_the_one_list_of_digests():
    found = {path.name: re.findall(r"\b[0-9a-f]{64}\b", path.read_text())
             for path in [*ROOT.glob("tests/*.py"), *ROOT.glob(".github/workflows/*.yml"), pinned.MANIFEST]}
    assert [name for name, digests in found.items() if digests] == [pinned.MANIFEST.name]
    assert sorted(found[pinned.MANIFEST.name]) == sorted({line.digest for line in LINES})  # each on one line
    assert {tag for line in LINES for tag in line.tags} <= {"cheap", "help", *pinned.VARIANTS}
    assert sum(1 + len(set(pinned.VARIANTS) & set(line.tags)) for line in LINES) == 38  # CI's runs, 40 before
    assert len(CHEAP) + sum("jobs2" in line.tags for line in CHEAP) == 24  # and tier-1's, 25 before
