"""Byte-identical CLI output on the fixture corpus.

Every fixture in tests/fixtures is run through the in-process `cli.run`, with
its input on stdin, and its exit code and the SHA-256 of its stdout are
compared with the digests recorded in bench/golden.json (written by
`python3 bench/record_golden.py`).  Criterion 10 checks that a run agrees
with itself; this checks that it agrees with the recorded answers.
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


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_fixture_matches_golden(path, monkeypatch):
    spec = json.loads(path.read_text(encoding="utf-8"))
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(spec["input"])))
    monkeypatch.setattr(sys, "stdout", out)
    code = cli.run([spec["command"], "--input", "-"])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    want = GOLDEN[path.name]
    assert (code, digest) == (want["exit"], want["stdout_sha256"])
