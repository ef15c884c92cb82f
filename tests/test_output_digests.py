"""The library outputs of the generated benchmark workloads, pinned.

`output_digests.digests()` hashes every output of one round of the
hn-lattice and battery-mix workloads at seeds 7, 13 and 21.  A change that
alters any output byte changes a digest here.
"""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

PINNED = [
    ("hn-lattice", 7, 37, "821bfee632a4c99ebd88ded41a472d85b84b06cf502d3ded72736333a2c0ef47"),
    ("hn-lattice", 13, 37, "7507bc3bf067b87c61a6d5562c3793cdcb17b3efaf6e403ff8d955cb4de3141a"),
    ("hn-lattice", 21, 37, "0bb95e792bfb4b7b1c891909ed8ff15ec631b9ec463f476a847956c6efc9d860"),
    ("battery-mix", 7, 30, "e4d5e6e2d0c55e66782df5a1448823d694060d241fd9f67bab15a2c8f6f71726"),
    ("battery-mix", 13, 30, "6bf99f8c30136b47df52818d5db3068f2cc301507c96323089767a73e8603ed3"),
    ("battery-mix", 21, 30, "dd23babe74a2bc9aa126015bb95c3044edd44c67d09bbb99086d1cdb5ed44f4d"),
]


@pytest.fixture
def output_digests(monkeypatch):
    """tests/output_digests.py with bench/ importable, writing no bytecode
    there; the modules it loads, bench's included, are dropped afterwards."""
    import importlib

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    try:
        yield importlib.import_module("output_digests")
    finally:
        for name in set(sys.modules) - before:
            if not name.startswith("slopecalc"):
                del sys.modules[name]


def test_library_outputs_match_the_pins(output_digests):
    got = [f"{w} seed={s} items={n} sha256={d}" for w, s, n, d in output_digests.digests()]
    want = [f"{w} seed={s} items={n} sha256={d}" for w, s, n, d in PINNED]
    assert got == want, (
        "the library outputs of the benchmark workloads changed; a deliberate "
        "output change updates PINNED here and is recorded in CHANGES.md"
    )


def test_answers_do_not_depend_on_call_history(output_digests):
    # each item parsed once and called twice on the same objects: the second
    # pass reads the lattices and scorers the first left on its modules
    got = [f"{w} seed={s} items={n} sha256={d}" for w, s, n, d in output_digests.digests(2)]
    want = [f"{w} seed={s} items={n} sha256={d}" for w, s, n, d in PINNED for _ in range(2)]
    assert got == want
