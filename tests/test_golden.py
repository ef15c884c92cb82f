"""Byte-identical CLI output on the fixture corpus.

Every fixture in tests/fixtures is run through the in-process `cli.run`, with
its input on stdin, and its exit code and the SHA-256 of its stdout are
compared with the digests recorded in bench/golden.json (written by
`python3 bench/record_golden.py`), once plain and once with `--oracle`,
and with `--seed 7` and `--seed=3` against the plain run (a seed is ignored);
one fixture per command also runs as a fresh process, plain and with
`--oracle`, and the whole corpus once more in one `python -O` process.
Criterion 10 checks that a run agrees with itself; this checks that it
agrees with the recorded answers.
"""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from slopecalc import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = sorted((ROOT / "tests" / "fixtures").glob("*.json"))
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))


def test_every_fixture_has_a_golden_record():
    assert sorted(path.name for path in FIXTURES) == sorted(GOLDEN)


def test_every_command_has_a_golden_fixture():
    """A command added to the CLI cannot skip the golden corpus."""
    covered = {
        json.loads(path.read_text(encoding="utf-8"))["command"]
        for path in FIXTURES
        if path.name in GOLDEN
    }
    assert set(cli.HANDLERS) - covered == set()


def _run_fixture(path, monkeypatch, *flags):
    spec = json.loads(path.read_text(encoding="utf-8"))
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(spec["input"])))
    monkeypatch.setattr(sys, "stdout", out)
    code = cli.run([spec["command"], "--input", "-", *flags])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_fixture_matches_golden(path, monkeypatch):
    want = GOLDEN[path.name]
    assert _run_fixture(path, monkeypatch) == (want["exit"], want["stdout_sha256"])


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_seed_changes_no_output(path, monkeypatch):
    """`--seed N` is checked to be an int and ignored: no output depends on it."""
    want = _run_fixture(path, monkeypatch)
    assert _run_fixture(path, monkeypatch, "--seed", "7") == want
    assert _run_fixture(path, monkeypatch, "--seed=3") == want


def test_every_fixture_passes_the_oracle(monkeypatch):
    """--oracle re-derives each answer and leaves the recorded bytes unchanged."""
    for path in FIXTURES:
        want = GOLDEN[path.name]
        got = _run_fixture(path, monkeypatch, "--oracle")
        assert got == (want["exit"], want["stdout_sha256"]), path.name


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _one_fixture_per_command():
    first = {}
    for path in FIXTURES:
        first.setdefault(json.loads(path.read_text(encoding="utf-8"))["command"], path)
    return sorted(first.values())


def _fresh_process(path, *flags):
    spec = json.loads(path.read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "-m", "slopecalc", spec["command"], "--input", "-", *flags],
        input=json.dumps(spec["input"]).encode(), capture_output=True, env=_env(), timeout=120,
    )
    want = GOLDEN[path.name]
    got = (proc.returncode, hashlib.sha256(proc.stdout).hexdigest())
    assert got == (want["exit"], want["stdout_sha256"]), proc.stderr


@pytest.mark.parametrize("path", _one_fixture_per_command(), ids=lambda path: path.stem)
def test_fresh_process_matches_golden(path):
    """A command run as its own `python -m slopecalc` process, so that it
    loads no module an earlier test has already imported."""
    _fresh_process(path)


@pytest.mark.parametrize("path", _one_fixture_per_command(), ids=lambda path: path.stem)
def test_fresh_process_with_oracle_matches_golden(path):
    """The same under `--oracle`, so that a check that needs a module its
    command's handler never loads must import it itself."""
    _fresh_process(path, "--oracle")


# Every fixture through the in-process `cli.run`, plain and with --oracle; prints
# whether asserts are on, the number of runs and each run whose record differs.
_CORPUS_SCRIPT = """
import hashlib, io, json, pathlib, sys
from slopecalc import cli
root = pathlib.Path(sys.argv[1])
golden = json.loads((root / "bench" / "golden.json").read_text(encoding="utf-8"))
runs, bad = 0, []
for path in sorted((root / "tests" / "fixtures").glob("*.json")):
    spec = json.loads(path.read_text(encoding="utf-8"))
    want = [golden[path.name]["exit"], golden[path.name]["stdout_sha256"]]
    for flags in ([], ["--oracle"]):
        sys.stdin, sys.stdout = io.StringIO(json.dumps(spec["input"])), io.StringIO()
        code = cli.run([spec["command"], "--input", "-", *flags])
        got = [code, hashlib.sha256(sys.stdout.getvalue().encode()).hexdigest()]
        runs += 1
        if got != want:
            bad.append([path.name, flags, *got])
sys.stdout = sys.__stdout__
print(json.dumps({"asserts": __debug__, "runs": runs, "bad": bad}))
"""


def test_golden_corpus_under_optimize():
    """One `python -O` process matches every golden record, plain and with
    --oracle, so that no check behind an answer rests on an assert statement."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORPUS_SCRIPT, str(ROOT)],
        capture_output=True, env=_env(), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"asserts": False, "runs": 2 * len(FIXTURES), "bad": []}
