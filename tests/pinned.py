"""Check the outputs pinned in pinned.txt, each run by the interpreter that runs this file as `python -m petring`, or
as its variant says, with the package installed or on PYTHONPATH:

    PYTHONPATH=src python tests/pinned.py

The runs work in a temporary directory, so each relative entry of PYTHONPATH, as `src` or the empty one that names
the current directory, is made absolute in their environment.  A line `DIGEST TAG ... : ARGUMENTS` pins the SHA-256
of what `petring ARGUMENTS` prints, and every run must also exit 0 with an empty stderr.  The outputs of commands
joined by ` ; ` are hashed as one, and `> NAME` keeps the output as NAME in the work directory that the lines share,
in file order.  Tags: cheap, run in-process by test_digests.py; help, run at COLUMNS=80 on Python 3.11 alone, whose
argparse layout it pins; and variants, each one more run: jobs2 adds `--jobs 2` and runs the script's
`petring.cli.entry` with `os.cpu_count` patched to 2, so that it runs on one CPU too; taskset adds `--jobs 2` under
`taskset -c 0`; out hashes the `--out` file; traced runs under benchmarks/tracer.py.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

MANIFEST = Path(__file__).with_name("pinned.txt")
TRACER = Path(__file__).parents[1] / "benchmarks" / "tracer.py"
PETRING = [sys.executable, "-m", "petring"]
VARIANTS = ("jobs2", "taskset", "out", "traced")
JOBS2 = "import os; os.cpu_count = lambda: 2; from petring.cli import entry; entry()"

Line = namedtuple("Line", "where digest tags commands keep")  # where: FILE:NUMBER; keep: a name, or "" for none


def read(path: Path = MANIFEST) -> list[Line]:
    """The manifest's lines, skipping those that are blank or start with "#"; ValueError names one that does not
    parse."""
    lines = []
    for number, text in enumerate(path.read_text().splitlines(), start=1):
        if text[:1] in ("", "#"):
            continue
        if not (m := re.fullmatch(r"([0-9a-f]{64})((?: \w+)*) : (.+?)(?: > (\S+))?", text)):
            raise ValueError(f"{path.name}:{number}: not DIGEST TAG ... : ARGUMENTS [> NAME]")
        lines.append(Line(f"{path.name}:{number}", m[1], m[2].split(), [c.split() for c in m[3].split(" ; ")],
                          m[4] or ""))
    return lines


def check(line: Line, variant: str, work: Path) -> str:
    """What is wrong with the variant's run of the line in ``work``, or "" if nothing."""
    out, env = b"", {**os.environ, **({"COLUMNS": "80"} if "help" in line.tags else {})}
    if "PYTHONPATH" in env:  # relative to the directory this runs in, not to the work directory
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, env["PYTHONPATH"].split(os.pathsep)))
    try:
        for args in line.commands:
            args = [*args, *{"jobs2": ["--jobs", "2"], "taskset": ["--jobs", "2"],
                             "out": ["--out", "out"]}.get(variant, [])]
            start = {"jobs2": [sys.executable, "-c", JOBS2], "taskset": ["taskset", "-c", "0", *PETRING],
                     "traced": [sys.executable, str(TRACER), "spans", args[0]]}.get(variant, PETRING)
            proc = subprocess.run([*start, *args], cwd=work, env=env, capture_output=True, timeout=120)
            if proc.returncode or proc.stderr:
                return f"exit code {proc.returncode}, stderr {proc.stderr.decode(errors='replace')!r}"
            out += (work / "out").read_bytes() if variant == "out" else proc.stdout
        if line.keep and not variant:
            (work / line.keep).write_bytes(out)
    except (subprocess.TimeoutExpired, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "" if (digest := hashlib.sha256(out).hexdigest()) == line.digest else f"digest {digest}"


def main(manifest: Path = MANIFEST) -> int:
    """Check every line of the manifest: 1 if a run failed, else 0."""
    failed = False
    with tempfile.TemporaryDirectory() as work:
        for line in (line for line in read(manifest) if "help" not in line.tags or sys.version_info[:2] == (3, 11)):
            for variant in ("", *(tag for tag in VARIANTS if tag in line.tags)):
                print(line.where, variant or "plain", end=": ", flush=True)  # named while it runs
                problem = check(line, variant, Path(work))
                failed |= bool(problem)
                print(f"FAIL, {problem}" if problem else "ok")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
