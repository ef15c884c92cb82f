"""The traced benchmark's required layers are all exercised by the program.

`bench/run.py --trace 1` marks a run incorrect when a layer it lists in
`REQUIRED` records no call.  Here one generated round of each library
workload runs in process under `bench/tracer.Tracer`, so that a change which
stops calling such a layer fails a test, not only the traced benchmark.
Nothing under bench/ is written.
"""

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
