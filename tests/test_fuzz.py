"""Malformed-input fuzzing of the CLI, seeded and exhaustive.

A seeded case takes one fixture of tests/fixtures, sets one field of its input
(a value of an object or an element of a list, at any depth) to one of a fixed
list of wrongly typed or extreme values, and runs it through the in-process
`cli.run`.  The exhaustive pass takes every fixture, sets its input, and in
turn each field of it, to each of SHAPES, and deletes each object key in turn;
`plot` runs under both formats.  Every run must end in an answer or an input
error (exit 0-3), never in an internal fault (exit 4, whose report carries a
traceback), and must finish within a time limit.  Stdlib only; the seeded
cases depend only on SEED.
"""

import contextlib
import io
import json
import pathlib
import random
import sys

from slopecalc import cli

from _deadline import Hang, deadline

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = [
    json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.json"))
]
VALUES = (None, True, 1.5, "x", "1/0", [], {}, -1, 0, 10**30, [[1]], "2")
SHAPES = ([], {}, None)
DELETE = object()  # as a replacement value: delete the key instead
SEED = 1
CASES = 1500
LIMIT_S = 10


def _paths(node, prefix=()):
    """Every position below the root: object keys and list indices, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(payload, path, value):
    """JSON text of payload with the position `path` set to value (or deleted)."""
    if not path:
        return json.dumps(value)
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(payload)


def _cases():
    rng = random.Random(SEED)
    for _ in range(CASES):
        fixture = rng.choice(FIXTURES)
        path = rng.choice(list(_paths(fixture["input"])))
        yield fixture["command"], _replaced(fixture["input"], path, rng.choice(VALUES))


def _shape_cases():
    """(command, flags, text) for every fixture, root and position, shape and deleted key."""
    for fixture in FIXTURES:
        command, payload = fixture["command"], fixture["input"]
        formats = [("--format", "svg"), ("--format", "json")] if command == "plot" else [()]
        for path in [(), *_paths(payload)]:
            values = [*SHAPES, DELETE] if path and isinstance(path[-1], str) else SHAPES  # a key
            for value in values:
                for flags in formats:
                    yield command, flags, _replaced(payload, path, value)


def _run(command, text, *flags):
    """(exit code, stderr) of one in-process run, or (None, "hang") past LIMIT_S."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with deadline(LIMIT_S), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.run([command, "--input", "-", *flags]), err.getvalue()
    except Hang:
        return None, "hang"
    finally:
        sys.stdin = old_stdin


def test_mutated_fixtures_never_fault_or_hang():
    failures = {}
    for command, text in _cases():
        if (command, text) in failures:
            continue
        code, err = _run(command, text)
        if code not in (0, 1, 2, 3) or "traceback" in err:
            failures[(command, text)] = f"exit {code}: {err[:300]}"
    report = [f"{cmd} {text}\n    {why}" for (cmd, text), why in list(failures.items())[:10]]
    assert not failures, f"{len(failures)} distinct failing inputs, e.g.\n" + "\n".join(report)


def test_every_shape_at_every_position_never_faults_or_hangs():
    failures, cases = {}, dict.fromkeys(_shape_cases())
    for command, flags, text in cases:
        code, err = _run(command, text, *flags)
        if code not in (0, 1, 2, 3) or "traceback" in err:
            failures[(command, *flags, text)] = f"exit {code}: {err[:300]}"
    report = [f"{' '.join(case)}\n    {why}" for case, why in list(failures.items())[:10]]
    assert not failures, f"{len(failures)} failing inputs, e.g.\n" + "\n".join(report)
