"""Tests of the benchmark itself, at ranks n <= 5 (``--smoke``).

    python -m pytest benchmarks
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys

import pytest

import run

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# the per-command metrics each workload prints in its detail line
COMMAND_METRICS = {
    "query-cold": ["expand_p50_ms", "expand_tail_ms"],
    "table-cache": ["table_s", "lookup_p50_ms", "lookup_tail_ms"],
    "verify-sweep": ["verify_s", "verify_j2_s"],
}


def _bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload: str, trace: str) -> None:
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    meta, detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-3:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    commands = detail["detail"] if trace == "0" else detail["detail"]["end_to_end_untraced"]
    for name in COMMAND_METRICS[workload] + ["req_tail_ms", "fail_frac", *run.END_TO_END_UNITS]:
        assert commands[name]["unit"], name
    assert commands["fail_frac"]["value"] == 0
    for key in ("nproc", "cpu_model", "python", "commit", "seed", "src_lines"):
        assert key in meta["meta"]


def test_traced_smoke_shows_the_layer_split() -> None:
    layers = {}
    for workload in run.WORKLOADS:
        proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        layers[workload] = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    assert layers["query-cold"]["oracle.eliminations"] > 0
    assert layers["query-cold"]["ring.multiply_generator_calls"] > 0
    for name in ("oracle.normal_form_calls", "oracle.eliminations", "diagrams.expand_all_calls"):
        assert layers["table-cache"][name] == 0
    assert layers["table-cache"]["cli.lookup_rows_read"] == 3 * layers["table-cache"]["cli.table_rows"] > 0
    verify = layers["verify-sweep"]
    assert verify["oracle.normal_form_calls"] and verify["ring.rewrite_calls"] and verify["diagrams.expand_all_calls"]
    assert verify["permutations.bruhat_leq_calls"] > 0


@pytest.mark.parametrize("workload, field", [("table-cache", "table_sha256"), ("verify-sweep", "verify_sha256")])
def test_wrong_reference_digest_counts_as_a_failure(workload: str, field: str) -> None:
    sizes = dataclasses.replace(run.SMOKE, **{field: "0" * 64})
    _, detail, outcomes = run.run_workload(workload, 1, 1, False, sizes)
    anchors = [o for o in outcomes if o.anchor]
    assert anchors and all(o.error and "digest" in o.error for o in anchors)
    assert detail["fail_frac"]["failed"] >= 1 and detail["fail_frac"]["value"] > 0


def test_wrong_golden_answer_counts_as_a_failure() -> None:
    n, J, K, expected = run.SMOKE.golden
    sizes = dataclasses.replace(run.SMOKE, golden=(n, J, K, {L: d + 1 for L, d in expected.items()}))
    _, _, outcomes = run.run_workload("query-cold", 1, 1, False, sizes)
    assert [o for o in outcomes if o.error] == [o for o in outcomes if o.anchor] != []


def test_refuses_to_run_without_the_sources(tmp_path) -> None:
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "query-cold", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_the_same_inputs(workload: str) -> None:
    def argvs(seed: int) -> list[list[str]]:
        plan = run.PLANS[workload](random.Random(seed), run.FULL, 2)
        return [cmd.argv for row in plan for cmd in row]

    assert argvs(7) == argvs(7)
    if workload != "verify-sweep":
        assert argvs(7) != argvs(8)


def test_query_mix_has_the_declared_degrees() -> None:
    plan = run.PLANS["query-cold"](random.Random(11), run.FULL, 3)
    for row in plan:
        degrees = []
        for cmd in (c for c in row if not c.anchor):
            n, J, K = int(cmd.argv[2]), run._parse(cmd.argv[4]), run._parse(cmd.argv[6])
            kind = "disjoint" if not set(J) & set(K) else "over" if len(J) + len(K) > n - 1 else "overlap"
            degrees.append((n, kind, len(J) + len(K) if kind == "overlap" else 0))
        assert sorted(degrees) == sorted(run.FULL.query_mix)


def test_tail_percentile_keeps_ten_samples_beyond() -> None:
    xs = [float(i) for i in range(1, 23)]
    assert run.tail(xs) == (54, 12.0)
    assert run.tail(xs[:5]) == (100, 5.0)
