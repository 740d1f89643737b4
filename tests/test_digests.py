"""Byte identity: the cheap commands whose outputs CI pins, run in-process,
each against the SHA-256 digest of its standard output that CI checks."""

import hashlib
import sys

import pytest

from test_cli import GOLDEN, _python, run

PINNED = [
    (GOLDEN, "aac552d30b711929ba205aa41ebc9cd5738ba15cc6ebc6e63de741609174f789"),
    ([*GOLDEN, "--method", "diagram"], "e6139498536dc4cb69009f4ab77a212cc821d6a2563875c9c48ec66d319b84e1"),
    ([*GOLDEN, "--method", "linalg"], "862289a2cddcb817967a2f3461f44dc1b7668f4b343a0b2d026510e4cbc2b534"),
    ([*GOLDEN, "--method", "rewrite"], "3d3046f78665b4714cbb4e44b12c3048f8a8c768b6b2047e25173183934bbbfb"),
    ([*GOLDEN, "--format", "csv"], "774a2283a89451cc61ca8a9dec05c94a2453d192d3327324432cab6f1610a593"),
    (["table", "-n", "7"], "5b50307e14b2e8c4173945905eeda7f31f00c2031a5142e1242cf71cc7471036"),
    (["table", "-n", "7", "--format", "json"], "8b4ccdb7ed0ae7ebf78910d98484c4868ae30c380c02c78c4efe94b2c3e6df7f"),
    (["table", "-n", "9"], "d68c5d709c3ee81daff38ceea5c454a2cc5a581a37b712b1710a228a4c5cfca7"),
    (["table", "-n", "14", "--degree", "3"], "86ba2b8f96755c3da8057d46c7666509bdd8560121d2d95c9671444b07f0146d"),
    (["verify", "--n-max", "6"], "db5f6ce15d9275206b02d74646f50b0cd1d21a465fd28ed87f36c58726ba3aba"),
    (["verify", "--n-max", "8"], "c129cf2c3bdb07f3cdc04fca3f65f53a0e7aa8c845f514b98260f4039b26dd83"),
    (["expand", "-n", "16", "-J", "2,3,4,5,6", "-K", "2,3,4,5,6"],
     "687b99dddeb9e8a49f390bd01b14f8cd5dcf20c35e4dcf01d02f640bc758e9b2"),
    (["diagrams", "-n", "10", "-J", "1,3,5,6,7", "-K", "3,6,8", "-L", "1,2,3,4,5,6,7,8"],
     "5f2e85a9ec7832a8b905afd8aa1519846dc8c0d0ccbe441f91cf56a1c38d6879"),
    (["group", "-n", "10", "-J", "1,2,4,5,6,9"], "f47b2db521a6a95302f2a41bf14c50f6269a1fa511dba82e058c33e03f4e9acf"),
    (["group", "-n", "16", "-J", "1,2,3,5,8,9,10,11,15"],
     "d7a6f79461b169936f0816ca03bc6713687c72121ca43bfdf6abcb6af32fe2e3"),
]


# the help of `petring` and of each subcommand at COLUMNS=80: a subcommand's help is
# the docstring of its command function in cli, whatever module holds its body
HELP = [
    ([], "342c47d162a43ce55ab0ad867df790de88a13bf5c1fe193715041fdf4be81ce3"),
    (["expand"], "de59305f483139aecf54d67442e62c92411c5b2ea88331ae73fc982b8b4a69e9"),
    (["diagrams"], "d50cc2692a889e2be94622a58605ca6cedcacb2473049b5b96cf7b2adec9c024"),
    (["verify"], "109d9d2e707fcbdaebfa4986f116f851f7cce716c9d04eee82c6f8b7c78b7771"),
    (["table"], "399e218a31df4f08ba4fb0e1225a9976888b0083046215489b59e70e1a121dcb"),
    (["group"], "10a65be244da99a96cfdcea1d55fa306b7c1aef2061bba9b844daa6c27b0b9a9"),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", PINNED, ids=[" ".join(argv) for argv, _ in PINNED])
def test_output_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert _digest(out) == digest


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse lays out help differently across Python "
                    "versions, and these digests are of Python 3.11's help")
@pytest.mark.parametrize("argv, digest", HELP, ids=[" ".join(argv) or "petring" for argv, _ in HELP])
def test_help_is_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv, "--help")
    assert (code, err) == (0, "")
    assert _digest(out) == digest


@pytest.mark.parametrize("table, lookup, digest", [
    (["table", "-n", "9"], ["-n", "9", "-J", "1,3,5", "-K", "2,3"],
     "9522f80fdb646203ffdbf1f543b1bd913d4e99e55e599fea67519d4ca138a68d"),
    (["table", "-n", "7", "--format", "json"], ["-n", "7", "-J", "1,2,4", "-K", "2,3"],
     "c87d0e9c22c3ccede3691d5d29f8445322339eaadcc9732c4f09dec1a506117f"),
], ids=["csv-9", "json-7"])
def test_cached_lookup_is_pinned(capsys, tmp_path, table, lookup, digest):
    path = tmp_path / ("table.json" if "json" in table else "table.csv")
    path.write_text(run(capsys, *table)[1])
    code, out, err = run(capsys, "expand", *lookup, "--cached", str(path))
    assert (code, err) == (0, "")
    assert _digest(out) == digest


def test_verify_with_spawned_workers_is_pinned():
    # a spawned worker imports petring.cli afresh, so it registers the engine modules again
    script = ("import multiprocessing, os, sys; multiprocessing.set_start_method('spawn'); os.cpu_count = lambda: 2; "
              "from petring.cli import main; sys.exit(main(['verify', '--n-max', '6', '--jobs', '2']))")
    proc = _python("-c", script, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert _digest(proc.stdout) == "db5f6ce15d9275206b02d74646f50b0cd1d21a465fd28ed87f36c58726ba3aba"
