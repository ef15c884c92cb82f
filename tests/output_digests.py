#!/usr/bin/env python3
"""Digests of the library outputs of the generated benchmark workloads.

    PYTHONPATH=src python tests/output_digests.py

Runs every warm-up and timed item of one round of the hn-lattice and
battery-mix workloads (bench/gen.py) at seeds 7, 13 and 21 through the
benchmark's own parse/call/serialise table (bench/worker.py `parsers`), and
prints, per workload and seed, the item count and the sha256 of the outputs
as sorted-key JSON.  Two checkouts whose lines match return the same bytes
on those workloads.  A failed call is recorded as its error, so it shows in
the digest rather than stopping the run.  Nothing under bench/ is written.
pytest does not collect this file.
"""

import hashlib
import json
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("hn-lattice", "battery-mix")
SEEDS = (7, 13, 21)


def _error(exc):
    """A failure as an output, so a new failure changes the digest."""
    return {"error": f"{type(exc).__name__}: {exc}"}


def digests(passes=1):
    """(workload, seed, item count, sha256 hex) for each workload and seed.

    Each item is parsed once; with `passes` > 1, every item is called again
    on the objects it was parsed into, and each pass gets its own row, so a
    later pass reads whatever the earlier ones left on those objects.
    """
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    import gen
    import worker

    import slopecalc

    table = worker.parsers(slopecalc)
    out = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            warm, timed = gen.WORKLOADS[workload](seed, 1)
            parsed = []  # (call, to_obj, parsed input), or (None, None, the parse error)
            for item in warm + timed:
                parse, call, to_obj = table[item["query"]]
                try:
                    parsed.append((call, to_obj, parse(item["input"])))
                except Exception as exc:
                    parsed.append((None, None, _error(exc)))
            for _ in range(passes):
                outputs = []
                for call, to_obj, obj in parsed:
                    try:
                        outputs.append(obj if call is None else to_obj(call(obj)))
                    except Exception as exc:
                        outputs.append(_error(exc))
                blob = json.dumps(outputs, sort_keys=True).encode()
                out.append((workload, seed, len(outputs), hashlib.sha256(blob).hexdigest()))
    return out


def main():
    for workload, seed, count, digest in digests():
        print(f"{workload} seed={seed} items={count} sha256={digest}")


if __name__ == "__main__":
    main()
