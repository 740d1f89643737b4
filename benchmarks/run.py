"""End-to-end benchmark of the petring CLI, with a traced run for layers.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Every command runs the way users run the CLI: one fresh Python process per
command, ``PYTHONPATH=src``, one command at a time (closed loop, one
client).  The only parallelism is the CLI's own ``verify --jobs 2``.  Every
output is checked; a command that exits non-zero or prints a wrong answer
counts as failed, and any failure makes this script exit 1.

Workloads (the seed picks the subsets; the CLI only sees the subsets):

query-cold   Cold ``expand --method all`` at n in {9, 10}.  A round is
             twelve requests, with the golden query (the anchor) before
             the first and the seventh, and a fixed mix of request
             categories: nine overlapping pairs with |J|+|K| from 5 to 8,
             two disjoint pairs (square-free shortcut, no elimination) and
             one pair with |J|+|K| > n-1 (linalg returns at once).  Each
             fresh process pays the elimination for its (n, d).
table-cache  ``table -n 9 --out FILE`` (the anchor), then cached lookups
             ``expand -n 9 --cached FILE`` of seeded pairs.  Exercises the
             rewrite engine and the table I/O; no lookup runs an engine.
verify-sweep ``verify --n-max 8 --jobs 1`` (the anchor), then the same
             with ``--jobs 2`` (the request).  The only workload that runs
             the diagram engine, warm normal forms, the graded-dimension
             eliminations, the Bruhat checks and the process pool.

End-to-end metrics (``--trace 0``), the same names on every workload:

setup_s      median of several set-ups: input generation plus one untimed
             ``import petring.cli`` process, so no timed command compiles
             bytecode
wall_s       median over rounds of the summed command latencies of a round
anchor_s     median latency of the anchor command
p50_ms       median latency of the request commands
peak_rss_mb  largest ``ru_maxrss`` of any child process

The four times are calibrated.  The host this benchmark was written on
drifts in speed by tens of percent within minutes, more than the
regressions the bounds must catch.  So after every set-up and command the
harness runs a fixed calibration process (calibration.py) at least once,
and for at least 4% of that command's time, and divides the command's
wall time by its speed factor: the mean time of the calibration runs right
before and right after it over their time at the reference speed.  A
calibrated time is thus in seconds at the reference speed; a slower
program gives a proportionally larger one.  The detail line keeps each
wall time as ``raw`` and the run's median factor as ``speed_factor``.  The
harness and every command run on one CPU, since the host's vCPUs slow
down independently; only ``verify --jobs 2`` gets them all.

A detail line before the result gives the per-command metrics by command
(``expand_p50_ms``, ``expand_tail_ms``, ``table_s``, ``lookup_p50_ms``,
``lookup_tail_ms``, ``verify_s``, ``verify_j2_s``), the request tail
``req_tail_ms``, ``fail_frac`` and the run metadata.  A tail is the latency
at the highest percentile with at least ten samples beyond it (the maximum
when there are fewer than 20 samples), given with that percentile and the
sample count.  Tails are not gated: on a 2-vCPU machine whose speed drifts
by tens of percent, the lookup tail spread over 0.25 of its median across
seeds.

Per-layer metrics (``--trace 1``) come from a traced pass of the same
commands (see tracer.py), after an untraced pass that gives
``trace.overhead_s`` and the --jobs 2 speed-up.  A layer is a petring
module; ``ring.rewrite_s``, ``diagrams.expand_all_s``,
``intervals.m_factor_s`` and ``permutations.bruhat_leq_s`` are the self
time of all that module's spans, summed over the pass.  ``oracle`` is split
into ``elim_cold_s`` (normal_form / quotient_dimension calls that are the
first in their process to need the elimination for their (n, d)) and
``normal_form_warm_s``.  ``cli.*_self_s`` is the self time of the CLI
command spans by command kind; ``cli.import_s`` is the median per process.
Counts are exact and repeat for a given seed; ``oracle.elim_columns`` is
computed as C(n+d-2, d) per elimination, the others are measured.  Pool
workers are not traced.

Expected split, which chose the workloads: the ``oracle`` elimination
dominates query-cold and is absent from table-cache; ``ring`` and
``intervals`` dominate the table; verify-sweep runs all three engines and
``permutations``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
ENTRY = "from petring.cli import entry; entry()"
WORKLOADS = ("query-cold", "table-cache", "verify-sweep")
ALL_CPUS = frozenset(os.sched_getaffinity(0))
SETUP_REPEATS = 7
COMMAND_TIMEOUT_S = 150
# seconds one calibration run takes at the reference speed, about its time
# on the 2-core Xeon this was written on; calibrated times are in seconds
# at that speed
CALIBRATION_REF_S = 0.12
# calibration time after each command, at least one run, as a share of
# the command's time
CALIBRATION_SHARE = 0.04

Subset = tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Problem sizes and reference outputs.  ``round_s`` is the nominal time
    of one round per workload, measured on a 2-core Xeon when the benchmark
    was written; it turns --seconds into a fixed number of rounds (as many
    as fit), so a run does the same work whatever the speed of the program."""

    golden: tuple[int, Subset, Subset, dict[Subset, int]]
    # (n, kind, |J|+|K|) of each request in a query-cold round
    query_mix: tuple[tuple[int, str, int], ...]
    table_rank: int
    table_sha256: str
    lookups_per_round: int
    verify_n_max: int
    verify_sha256: str
    round_s: dict[str, float]


FULL = Sizes(
    golden=(10, (1, 3, 5, 6, 7), (3, 6, 8),
            {(1, 2, 3, 4, 5, 6, 7, 8): 3456, (1, 2, 3, 5, 6, 7, 8, 9): 24, (1, 3, 4, 5, 6, 7, 8, 9): 240}),
    # four cheap requests, four alike at n=10, d=6 and four heavy ones, so
    # that the median of 2 rounds (24 samples) falls inside the block of
    # requests that cost the same, not on a gap between blocks
    query_mix=(
        (10, "disjoint", 0), (9, "disjoint", 0), (10, "over", 0), (9, "overlap", 5),
        (10, "overlap", 6), (10, "overlap", 6), (10, "overlap", 6), (10, "overlap", 6),
        (9, "overlap", 7), (10, "overlap", 7), (10, "overlap", 7), (9, "overlap", 8),
    ),
    table_rank=9,
    table_sha256="d68c5d709c3ee81daff38ceea5c454a2cc5a581a37b712b1710a228a4c5cfca7",
    lookups_per_round=12,
    verify_n_max=8,
    verify_sha256="c129cf2c3bdb07f3cdc04fca3f65f53a0e7aa8c845f514b98260f4039b26dd83",
    round_s={"query-cold": 14.0, "table-cache": 14.0, "verify-sweep": 12.5},
)

SMOKE = Sizes(
    golden=(5, (1, 2), (2,), {(1, 2, 3): 2}),
    query_mix=(
        (5, "overlap", 3), (5, "overlap", 2), (4, "overlap", 3), (4, "overlap", 2),
        (5, "disjoint", 0), (4, "disjoint", 0), (5, "over", 0),
    ),
    table_rank=5,
    table_sha256="501d8861f2e7df2011a7cbffdc2c179bf2d5a1375a486ce12447e1ea22371eac",
    lookups_per_round=3,
    verify_n_max=4,
    verify_sha256="e433edf616216a5346b621a35f3f9855dbbae2d07be4220262e4d85a4184ed6c",
    round_s={"query-cold": 2.0, "table-cache": 1.5, "verify-sweep": 1.0},
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "anchor_s": "s",
    "p50_ms": "ms", "peak_rss_mb": "MB",
}

# unit and whether the value is measured or computed, per layer metric
PER_LAYER = {
    "oracle.elim_cold_s": ("s", "measured"),
    "oracle.eliminations": ("count", "measured"),
    "oracle.elim_columns": ("count", "computed"),
    "oracle.normal_form_warm_s": ("s", "measured"),
    "oracle.normal_form_calls": ("count", "measured"),
    "ring.rewrite_s": ("s", "measured"),
    "ring.rewrite_calls": ("count", "measured"),
    "ring.multiply_generator_calls": ("count", "measured"),
    "diagrams.expand_all_s": ("s", "measured"),
    "diagrams.expand_all_calls": ("count", "measured"),
    "intervals.m_factor_s": ("s", "measured"),
    "intervals.m_factor_calls": ("count", "measured"),
    "permutations.bruhat_leq_s": ("s", "measured"),
    "permutations.bruhat_leq_calls": ("count", "measured"),
    "cli.import_s": ("s", "measured"),
    "cli.table_self_s": ("s", "measured"),
    "cli.table_rows": ("count", "measured"),
    "cli.lookup_self_s": ("s", "measured"),
    "cli.lookup_rows_read": ("count", "measured"),
    "cli.verify_self_s": ("s", "measured"),
    "cli.jobs2_speedup": ("ratio", "measured"),
    "cli.jobs2_base_j1_s": ("s", "measured"),
    "cli.jobs2_base_j2_s": ("s", "measured"),
    "trace.overhead_s": ("s", "measured"),
}


@dataclasses.dataclass
class Command:
    """One CLI invocation.  ``label`` names the command kind (expand,
    table, lookup, verify_j1, verify_j2); ``check`` takes the stdout and
    returns an error message, or None when the output is right."""

    label: str
    anchor: bool
    argv: list[str]
    check: Callable[[str], str | None]
    # runs processes in parallel, so it may use every CPU of the benchmark
    parallel: bool = False


# ---------------------------------------------------------------- inputs


def _fmt(s: Subset) -> str:
    return ",".join(map(str, s)) if s else "-"


def _parse(text: str) -> list[int]:
    return [] if text == "-" else [int(x) for x in text.split(",")]


def _m_factor(s: Subset) -> int:
    """Product of the factorials of the lengths of the maximal runs of
    consecutive integers in s."""
    m, run, prev = 1, 0, None
    for x in s:
        run = run + 1 if prev is not None and x == prev + 1 else 1
        m *= run
        prev = x
    return m


def _pair(rng: random.Random, n: int, kind: str, d: int) -> tuple[Subset, Subset]:
    ground = range(1, n)
    if kind == "disjoint":
        picked = rng.sample(ground, rng.randint(2, n - 1))
        split = rng.randint(1, len(picked) - 1)
        return tuple(sorted(picked[:split])), tuple(sorted(picked[split:]))
    if kind == "over":
        d = rng.randint(n, n + 2)
    while True:
        a = rng.randint(max(1, d - (n - 1)), min(d - 1, n - 1))
        J, K = sorted(rng.sample(ground, a)), sorted(rng.sample(ground, d - a))
        if set(J) & set(K):
            return tuple(J), tuple(K)


def _expansion(out: str, n: int, J: Subset, K: Subset, method: str) -> tuple[dict, str | None]:
    """The JSON record `expand` printed, and an error unless it echoes the
    request."""
    rec = json.loads(out.strip().splitlines()[-1])
    if (rec["n"], rec["J"], rec["K"], rec["method"]) != (n, list(J), list(K), method):
        return rec, f"echo mismatch: {rec['n']} {rec['J']} {rec['K']} {rec['method']}"
    return rec, None


def _expand_check(n: int, J: Subset, K: Subset, expected: dict[Subset, int] | None) -> Callable:
    """Echo of the inputs, L containing J | K with |L| = |J| + |K|,
    positive integer coefficients, and the exact answer where known."""

    def check(out: str) -> str | None:
        rec, error = _expansion(out, n, J, K, "all")
        if error:
            return error
        union, got = set(J) | set(K), {}
        for term in rec["terms"]:
            L, coeff = term["L"], term["coeff"]
            if not (isinstance(coeff, str) and coeff.isdigit() and int(coeff) > 0):
                return f"coefficient {coeff!r} at L={L} is not a positive integer"
            if L != sorted(set(L)) or not union <= set(L) or len(L) != len(J) + len(K):
                return f"support condition fails at L={L}"
            got[tuple(L)] = int(coeff)
        if expected is not None and got != expected:
            return f"expected {expected}, got {got}"
        return None

    return check


def _query_rounds(rng: random.Random, sizes: Sizes, rounds: int) -> list[list[Command]]:
    gn, gJ, gK, gexp = sizes.golden
    plan = []
    for _ in range(rounds):
        requests = []
        for n, kind, d in sizes.query_mix:
            J, K = _pair(rng, n, kind, d)
            expected = None
            if kind == "disjoint":
                L = tuple(sorted(J + K))
                expected = {L: _m_factor(L) // (_m_factor(J) * _m_factor(K))}
            elif kind == "over":
                expected = {}
            requests.append(Command("expand", False, _expand_argv(n, J, K), _expand_check(n, J, K, expected)))
        rng.shuffle(requests)
        golden = Command("expand", True, _expand_argv(gn, gJ, gK), _expand_check(gn, gJ, gK, gexp))
        plan.append([golden] + requests[:6] + [golden] + requests[6:])
    return plan


def _expand_argv(n: int, J: Subset, K: Subset) -> list[str]:
    return ["expand", "-n", str(n), "-J", _fmt(J), "-K", _fmt(K), "--method", "all"]


def _read_table(path: Path) -> dict[tuple[str, str], list[dict]]:
    """The benchmark's own parse of a CSV table: rows per (J, K), each as
    the term dict that `expand` prints."""
    rows: dict[tuple[str, str], list[dict]] = {}
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            rows.setdefault((r["J"], r["K"]), []).append({"L": _parse(r["L"]), "coeff": r["d"]})
    return rows


def _table_rounds(rng: random.Random, sizes: Sizes, rounds: int) -> list[list[Command]]:
    n = sizes.table_rank
    path = WORK / f"table-{n}.csv"
    rel = str(path.relative_to(ROOT))
    parsed: dict[tuple[str, str], list[dict]] = {}

    def check_table(out: str) -> str | None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != sizes.table_sha256:
            return f"table digest {digest} != reference {sizes.table_sha256}"
        parsed.clear()
        parsed.update(_read_table(path))
        rows = sum(len(v) for v in parsed.values())
        if out != f"wrote {rows} rows to {rel}\n":
            return f"unexpected table report {out!r} for {rows} rows"
        return None

    def lookup_check(J: Subset, K: Subset) -> Callable:
        def check(out: str) -> str | None:
            rec, error = _expansion(out, n, J, K, "cached")
            if error:
                return error
            expected = sorted(parsed.get((_fmt(J), _fmt(K)), []), key=lambda t: sum(1 << x for x in t["L"]))
            if rec["terms"] != expected:
                return f"lookup J={_fmt(J)} K={_fmt(K)}: {rec['terms']} != table rows {expected}"
            return None

        return check

    plan = []
    ground = range(1, n)
    for _ in range(rounds):
        cmds = [Command("table", True, ["table", "-n", str(n), "--out", rel], check_table)]
        for _ in range(sizes.lookups_per_round):
            J = tuple(x for x in ground if rng.random() < 0.5)
            K = tuple(x for x in ground if rng.random() < 0.5)
            argv = ["expand", "-n", str(n), "-J", _fmt(J), "-K", _fmt(K), "--cached", rel]
            cmds.append(Command("lookup", False, argv, lookup_check(J, K)))
        plan.append(cmds)
    return plan


def _verify_rounds(rng: random.Random, sizes: Sizes, rounds: int) -> list[list[Command]]:
    def check(out: str) -> str | None:
        digest = hashlib.sha256(out.encode()).hexdigest()
        return None if digest == sizes.verify_sha256 else f"verify stdout digest {digest} != reference"

    base = ["verify", "--n-max", str(sizes.verify_n_max), "--jobs"]
    return [
        [Command("verify_j1", True, base + ["1"], check), Command("verify_j2", False, base + ["2"], check, parallel=True)]
        for _ in range(rounds)
    ]


PLANS = {"query-cold": _query_rounds, "table-cache": _table_rounds, "verify-sweep": _verify_rounds}


# ------------------------------------------------------------- execution


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], cpus: frozenset[int] | None = None) -> tuple[int, str, str, float]:
    """Run one process from the checkout root, on ``cpus`` if given, else on
    the CPUs of this process; returns (exit code, stdout, stderr, seconds).
    The process and anything it started are killed if it outlives the
    timeout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
    )
    try:
        out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -signal.SIGKILL, out, f"timed out after {COMMAND_TIMEOUT_S} s", time.perf_counter() - t0
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err, time.perf_counter() - t0


@dataclasses.dataclass
class Outcome:
    label: str
    anchor: bool
    seconds: float
    stdout: str
    error: str | None
    # times of the calibration processes run right after the command
    units: list[float] = dataclasses.field(default_factory=list)


def run_command(cmd: Command, span_file: Path | None = None) -> Outcome:
    if span_file is None:
        argv = [sys.executable, "-c", ENTRY, *cmd.argv]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(span_file), span_file.stem, *cmd.argv]
    code, out, err, seconds = run_process(argv, ALL_CPUS if cmd.parallel else None)
    if code != 0:
        error = f"exit {code}: {err.strip()[-500:]}"
    else:
        try:
            error = cmd.check(out)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            error = f"unreadable output: {exc!r}"
    return Outcome(cmd.label, cmd.anchor, seconds, out, error)


def run_pass(plan: list[list[Command]], span_dir: Path | None = None,
             calibrate: bool = False) -> list[list[Outcome]]:
    outcomes = []
    for r, cmds in enumerate(plan):
        row = []
        for c, cmd in enumerate(cmds):
            span_file = None if span_dir is None else span_dir / f"r{r}-c{c}.spans"
            row.append(run_command(cmd, span_file))
            if calibrate:
                row[-1].units = calibrate_after(row[-1].seconds)
            if row[-1].error:
                print(f"FAIL {cmd.label} {' '.join(cmd.argv)}: {row[-1].error}", file=sys.stderr)
        outcomes.append(row)
    return outcomes


class SetupError(RuntimeError):
    pass


# ----------------------------------------------------------- calibration


def calibrate_after(seconds: float) -> list[float]:
    """Run the calibration process once, and again until the calibration
    time reaches CALIBRATION_SHARE of ``seconds``; returns each run's time."""
    units: list[float] = []
    while not units or sum(units) < CALIBRATION_SHARE * seconds:
        code, _, err, unit_s = run_process([sys.executable, str(HERE / "calibration.py")])
        if code != 0:
            raise SetupError(f"calibration kernel failed: {err.strip()[-500:]}")
        units.append(unit_s)
    return units


def setup(workload: str, seed: int, sizes: Sizes, rounds: int) -> list[list[Command]]:
    """Generate the inputs and import the CLI once in an untimed process."""
    WORK.mkdir(exist_ok=True)
    plan = PLANS[workload](random.Random(seed), sizes, rounds)
    code, _, err, _ = run_process([sys.executable, "-c", "import petring.cli"])
    if code != 0:
        raise SetupError(f"cannot import petring.cli from {SRC}: {err.strip()[-500:]}")
    return plan


# --------------------------------------------------------------- metrics


def tail(samples: list[float]) -> tuple[int, float]:
    """(percentile, value): the highest whole percentile, at or above the
    median, with at least ten samples beyond it by nearest rank; (100, max)
    when there are fewer than 20 samples."""
    xs = sorted(samples)
    n = len(xs)
    for pct in range(99, 49, -1):
        rank = -(-pct * n // 100)
        if n - rank >= 10:
            return pct, xs[rank - 1]
    return 100, xs[-1]


def _latency_stats(name: str, seconds: list[float]) -> dict:
    """``<name>_p50_ms`` and ``<name>_tail_ms`` with percentile and count."""
    pct, value = tail(seconds)
    return {
        f"{name}_p50_ms": {"value": statistics.median(seconds) * 1e3, "unit": "ms"},
        f"{name}_tail_ms": {"value": value * 1e3, "unit": "ms", "percentile": pct, "samples": len(seconds)},
    }


def end_to_end(outcomes: list[list[Outcome]], setups: list[tuple[float, list[float]]]) -> tuple[dict, dict]:
    """The gated metrics, and the per-command detail.  ``setups`` holds
    (set-up seconds, times of the calibration runs right after it) pairs.
    Gated times are calibrated; every time in the detail is wall time, and
    each gated one shows its wall time as ``raw``."""
    flat = [o for row in outcomes for o in row]
    anchors = [o for o in flat if o.anchor]
    requests = [o for o in flat if not o.anchor]
    req = _latency_stats("req", [o.seconds for o in requests])
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    # each command's speed factor: the mean of the calibration runs right
    # before and right after it
    before = [setups[-1][1]] + [o.units for o in flat[:-1]]
    factor = {id(o): statistics.fmean(b + o.units) / CALIBRATION_REF_S for o, b in zip(flat, before)}

    def cal(o: Outcome) -> float:
        return o.seconds / factor[id(o)]

    units = [u for _, us in setups for u in us] + [u for o in flat for u in o.units]
    speed = statistics.median(units) / CALIBRATION_REF_S
    raw = {
        "setup_s": statistics.median(t for t, _ in setups),
        "wall_s": statistics.median(sum(o.seconds for o in row) for row in outcomes),
        "anchor_s": statistics.median(o.seconds for o in anchors),
        "p50_ms": req["req_p50_ms"]["value"],
    }
    metrics = {
        "setup_s": statistics.median(t / statistics.fmean(us) * CALIBRATION_REF_S for t, us in setups),
        "wall_s": statistics.median(sum(cal(o) for o in row) for row in outcomes),
        "anchor_s": statistics.median(cal(o) for o in anchors),
        "p50_ms": statistics.median(cal(o) for o in requests) * 1e3,
        "peak_rss_mb": peak_mb,
    }
    detail: dict = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}
    for name, v in raw.items():
        detail[name]["raw"] = v
    detail["speed_factor"] = {"value": speed, "unit": "ratio", "reference_unit_s": CALIBRATION_REF_S,
                              "units": len(units)}
    detail["req_tail_ms"] = req["req_tail_ms"]
    by_label: dict[str, list[float]] = {}
    for o in flat:
        by_label.setdefault(o.label, []).append(o.seconds)
    for label, secs in by_label.items():
        if label in ("expand", "lookup"):
            detail.update(_latency_stats(label, secs))
        else:
            name = {"table": "table_s", "verify_j1": "verify_s", "verify_j2": "verify_j2_s"}[label]
            detail[name] = {"value": statistics.median(secs), "unit": "s", "samples": len(secs)}
    failed = sum(1 for o in flat if o.error)
    detail["fail_frac"] = {"value": failed / len(flat), "unit": "ratio", "failed": failed, "attempted": len(flat)}
    return metrics, detail


def per_layer(plan: list[list[Command]], untraced: list[list[Outcome]], traced: list[list[Outcome]],
              span_dir: Path) -> tuple[dict, dict]:
    """Layer metrics from the span files of the traced pass."""
    m = dict.fromkeys(PER_LAYER, 0)
    spans_total: dict[str, dict] = {}
    imports, cold = [], []
    for r, cmds in enumerate(plan):
        for c, cmd in enumerate(cmds):
            path = span_dir / f"r{r}-c{c}.spans"
            if not path.exists():
                continue
            s = tracer.summarize(str(path))
            spans = s["spans"]
            cold += s["cold"]
            for name, e in spans.items():
                tot = spans_total.setdefault(name, {"calls": 0, "self_s": 0.0})
                tot["calls"] += e["calls"]
                tot["self_s"] += e["self_s"]
            imports.append(spans["cli.import"]["total_s"])
            cli_self = sum(e["self_s"] for name, e in spans.items()
                           if name.startswith("cli.") and name != "cli.import")
            key = {"table": "cli.table_self_s", "lookup": "cli.lookup_self_s",
                   "verify_j1": "cli.verify_self_s", "verify_j2": "cli.verify_self_s"}.get(cmd.label)
            if key:
                m[key] += cli_self
            m["cli.lookup_rows_read"] += s["counters"].get("cli.lookup_rows_read", 0)
            if cmd.label == "table" and not traced[r][c].error:
                # "wrote N rows to FILE", checked against the file by check_table
                m["cli.table_rows"] += int(traced[r][c].stdout.split()[1])

    def self_of(prefix: str) -> float:
        return sum(e["self_s"] for name, e in spans_total.items() if name.startswith(prefix))

    def calls(name: str) -> int:
        return spans_total.get(name, {"calls": 0})["calls"]

    m["oracle.elim_cold_s"] = sum(e["self_s"] for name, e in spans_total.items() if name.endswith(".cold"))
    m["oracle.eliminations"] = len(cold)
    m["oracle.elim_columns"] = sum(c[2] for c in cold)
    m["oracle.normal_form_warm_s"] = spans_total.get("oracle.normal_form", {"self_s": 0.0})["self_s"]
    m["oracle.normal_form_calls"] = calls("oracle.normal_form") + calls("oracle.normal_form.cold")
    m["ring.rewrite_s"] = self_of("ring.")
    m["ring.rewrite_calls"] = calls("ring.structure_constants_rewrite")
    m["ring.multiply_generator_calls"] = calls("ring.multiply_generator")
    m["diagrams.expand_all_s"] = self_of("diagrams.")
    m["diagrams.expand_all_calls"] = calls("diagrams.expand_all")
    m["intervals.m_factor_s"] = self_of("intervals.")
    m["intervals.m_factor_calls"] = calls("intervals.m_factor")
    m["permutations.bruhat_leq_s"] = self_of("permutations.")
    m["permutations.bruhat_leq_calls"] = calls("permutations.bruhat_leq")
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    j1 = [o.seconds for row in untraced for o in row if o.label == "verify_j1"]
    j2 = [o.seconds for row in untraced for o in row if o.label == "verify_j2"]
    if j1 and j2:
        m["cli.jobs2_base_j1_s"] = statistics.median(j1)
        m["cli.jobs2_base_j2_s"] = statistics.median(j2)
        m["cli.jobs2_speedup"] = m["cli.jobs2_base_j1_s"] / m["cli.jobs2_base_j2_s"]
    untraced_wall = sum(o.seconds for row in untraced for o in row)
    traced_wall = sum(o.seconds for row in traced for o in row)
    m["trace.overhead_s"] = traced_wall - untraced_wall
    detail = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "elim_cold_share_of_traced_wall": m["oracle.elim_cold_s"] / traced_wall,
        "cold_eliminations": [{"n": n, "d": d, "columns": cols, "quotient_dimension": qd}
                              for n, d, cols, qd in cold],
        "labels": {name: label for name, (_, label) in PER_LAYER.items()},
        "spans": {name: e for name, e in sorted(spans_total.items()) if e["calls"]},
    }
    return m, detail


# ------------------------------------------------------------ metadata


def _commit() -> str:
    """HEAD of the checkout, read from .git inside it; 'unknown' when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, seconds: int, smoke: bool) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "smoke": smoke,
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": sys.version.split()[0],
        "commit": _commit(), "src_lines": src_lines,
    }


# ------------------------------------------------------------------ main


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 sizes: Sizes) -> tuple[dict, dict, list[Outcome]]:
    """Set up, run and check one workload.  Returns (metrics, detail,
    outcomes of every command run)."""
    rounds = max(1, int(seconds / sizes.round_s[workload]))
    if trace:
        rounds = max(1, rounds // 2)
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        plan = setup(workload, seed, sizes, rounds)
        setup_s = time.perf_counter() - t
        setups.append((setup_s, calibrate_after(setup_s)))
    untraced = run_pass(plan, calibrate=True)
    metrics, detail = end_to_end(untraced, setups)
    outcomes = [o for row in untraced for o in row]
    if trace:
        span_dir = WORK / "spans"
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)
        traced = run_pass(plan, span_dir)
        outcomes += [o for row in traced for o in row]
        metrics, layer_detail = per_layer(plan, untraced, traced, span_dir)
        detail = {"end_to_end_untraced": detail, "layers": layer_detail}
    return metrics, detail, outcomes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny ranks (n <= 5), for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "petring" / "cli.py").is_file():
        print(f"error: no petring sources under {SRC}", file=sys.stderr)
        return 2
    sizes = SMOKE if args.smoke else FULL
    # the host's vCPUs slow down independently of each other, so every
    # command shares one CPU with the calibration runs around it
    os.sched_setaffinity(0, {min(ALL_CPUS)})
    try:
        metrics, detail, outcomes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = sum(1 for o in outcomes if o.error)
    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if args.trace else END_TO_END_UNITS
    print(json.dumps({"meta": metadata(args.workload, args.seed, args.seconds, args.smoke)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
