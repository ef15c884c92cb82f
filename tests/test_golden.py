"""Byte-identical CLI output on the fixture corpus.

Every fixture in tests/fixtures is run through the in-process `cli.run`, with
its input on stdin, and its exit code and the SHA-256 of its stdout are
compared with the digests recorded in bench/golden.json (written by
`python3 bench/record_golden.py`), once plain and once with `--oracle`.
Criterion 10 checks that a run agrees with itself; this checks that it
agrees with the recorded answers.
"""

import hashlib
import io
import json
import pathlib
import sys

import pytest

from slopecalc import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = sorted((ROOT / "tests" / "fixtures").glob("*.json"))
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))


def test_every_fixture_has_a_golden_record():
    assert sorted(path.name for path in FIXTURES) == sorted(GOLDEN)


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


def test_every_fixture_passes_the_oracle(monkeypatch):
    """--oracle re-derives each answer and leaves the recorded bytes unchanged."""
    for path in FIXTURES:
        want = GOLDEN[path.name]
        got = _run_fixture(path, monkeypatch, "--oracle")
        assert got == (want["exit"], want["stdout_sha256"]), path.name
