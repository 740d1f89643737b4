import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor

import pytest

import petring.cli
from petring.ring import scale

from petring.cli import ExpansionRecord, compute_expansion, main
from petring.errors import ConsistencyError

GOLDEN = ["expand", "-n", "10", "-J", "1,3,5,6,7", "-K", "3,6,8"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_usage_errors(self, capsys):
        assert run(capsys, "expand", "-n", "99", "-J", "1", "-K", "2")[0] == 1
        assert run(capsys, "expand", "-n", "5", "-J", "7", "-K", "-")[0] == 1
        assert run(capsys, "expand", "-n", "5", "-J", "2,1", "-K", "-")[0] == 1

    def test_deterministic_output(self, capsys):
        out1 = run(capsys, *GOLDEN)[1]
        out2 = run(capsys, *GOLDEN)[1]
        assert out1 == out2


class TestExpansionRecord:
    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, *GOLDEN)
        record = ExpansionRecord.from_json(out)
        assert record.to_json() == out.strip()
        assert ExpansionRecord.from_json(record.to_json()) == record


class TestDiagramsCommand:
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


class TestVerify:
    def test_small_ranks_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "5")
        assert code == 0
        assert "n=5: 256 (J,K) pairs" in out
        assert "all checks passed" in out

    def test_process_pool_matches_serial(self, capsys, monkeypatch):
        # one pool serves the pair sweep of every rank
        serial = run(capsys, "verify", "--n-max", "6", "--jobs", "1")
        pools = []
        pool = ProcessPoolExecutor

        def counting(**kwargs):
            pools.append(kwargs)
            return pool(**kwargs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", counting)
        pooled = run(capsys, "verify", "--n-max", "6", "--jobs", "2")
        assert pools == [{"max_workers": 2}]
        assert serial[0] == pooled[0] == 0
        assert pooled[1] == serial[1]
        assert "n=6: 1024 (J,K) pairs" in pooled[1]

    @pytest.mark.parametrize("target, fault, line", [
        ("multiply", lambda f: lambda c1, c2: scale(f(c1, c2), 2),
         "FAIL n=3 i=2: integral of g_2^2 is 4 by the run rule, 1 by the relations, Eulerian number 1"),
        ("normal_form", lambda f: lambda m: {L: 3 * c for L, c in f(m).items()},
         "FAIL n=3 i=2: integral of g_2^2 is 1 by the run rule, 3 by the relations, Eulerian number 1"),
    ], ids=["multiply", "normal_form"])
    def test_top_degree_fault_detected(self, capsys, monkeypatch, target, fault, line):
        monkeypatch.setattr(petring.cli, target, fault(getattr(petring.cli, target)))
        code, out, err = run(capsys, "verify", "--n-max", "3")
        assert code == 2
        assert "n=2: top-degree evaluation FAIL" in out
        assert "n=3: top-degree evaluation FAIL" in out
        assert line in err.splitlines()

    def test_rank_one_trivial(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "1")
        assert code == 0

    def test_guard(self, capsys):
        assert run(capsys, "verify", "--n-max", "9")[0] == 1

    def test_failure_names_subsets(self, capsys, monkeypatch):
        def faulty(J, K, method):
            if J.format() == "1,3" and K.format() == "2":
                raise ConsistencyError("injected")
            return compute_expansion(J, K, method)

        monkeypatch.setattr("petring.cli.compute_expansion", faulty)
        code, out, err = run(capsys, "verify", "--n-max", "5")
        assert code == 2
        assert "FAIL n=5 J=1,3 K=2: injected" in err.splitlines()
        assert "FAIL n=5 J=2 K=1,3: expansion not symmetric" in err.splitlines()
        assert "FAIL" not in out


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
