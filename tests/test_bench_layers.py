"""The traced benchmark's required layers are all exercised by the program.

`bench/run.py --trace 1` marks a run incorrect when a layer it lists in
`REQUIRED` records no call.  Here one generated round of each library
workload, and every fixture of the cli-corpus workload, runs in process under
`bench/tracer.Tracer`, so that a change which stops calling such a layer
fails a test, not only the traced benchmark.  Nothing under bench/ is
written.
"""

import hashlib
import io
import json
import pathlib
import sys

import pytest

import slopecalc

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SEED = 13


@pytest.fixture
def bench(monkeypatch):
    """bench/run.py and the bench modules it uses, imported from bench/
    without writing bytecode there, and dropped from sys.modules afterwards."""
    import importlib

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    names = ("run", "gen", "oracle", "worker", "tracer")
    try:
        yield {name: importlib.import_module(name) for name in names}
    finally:
        for name in set(sys.modules) - before:
            if not name.startswith("slopecalc"):
                del sys.modules[name]


@pytest.mark.parametrize("workload", ["hn-lattice", "battery-mix"])
def test_traced_round_calls_every_required_layer(bench, workload):
    _, timed = bench["gen"].WORKLOADS[workload](SEED, 1)
    table = bench["worker"].parsers(slopecalc)
    items = [(it["query"], table[it["query"]][0](it["input"])) for it in timed]
    tracer = bench["tracer"].Tracer()
    tracer.install()
    try:
        outputs = bench["worker"].timed_loop(items, table, tracer=tracer)[3]
    finally:
        tracer.uninstall()
    failures = [reason for item, out in zip(timed, outputs)
                if (reason := bench["oracle"].check(item, out))]
    assert failures == []
    required = bench["run"].REQUIRED[workload]
    assert [layer for layer in required if not tracer.calls[layer]] == []


def test_traced_cli_corpus_calls_every_required_layer(bench):
    """Every fixture through the in-process `cli.run`, each result against
    bench/golden.json, as the traced cli-corpus workload runs them."""
    from slopecalc import cli  # imported before the tracer wraps its `run`

    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    fixtures = sorted((BENCH.parent / "tests" / "fixtures").glob("*.json"))
    tracer = bench["tracer"].Tracer()
    tracer.install()
    got, real_in, real_out = {}, sys.stdin, sys.stdout
    try:
        for path in fixtures:
            spec = json.loads(path.read_text(encoding="utf-8"))
            sys.stdin, sys.stdout = io.StringIO(json.dumps(spec["input"])), io.StringIO()
            tracer.begin_call()
            code = cli.run([spec["command"], "--input", "-"])
            digest = hashlib.sha256(sys.stdout.getvalue().encode()).hexdigest()
            got[path.name] = {"exit": code, "stdout_sha256": digest}
    finally:
        sys.stdin, sys.stdout = real_in, real_out
        tracer.uninstall()
    assert got == golden
    required = bench["run"].REQUIRED["cli-corpus"]
    assert [layer for layer in required if not tracer.calls[layer]] == []
