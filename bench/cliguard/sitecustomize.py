"""Import-path guard for the benchmark's CLI children.

`bench/run.py` puts this directory on PYTHONPATH, so the interpreter loads it
at start-up.  At exit, a child whose `slopecalc` did not come from the
checked-out src/ named in SLOPECALC_BENCH_SRC exits with code 97, which the
benchmark counts as a failed call.
"""

import atexit
import os
import sys

_SRC = os.environ.get("SLOPECALC_BENCH_SRC")


def _check():
    module = sys.modules.get("slopecalc")
    where = os.path.realpath(getattr(module, "__file__", None) or "<not imported>")
    if not where.startswith(os.path.join(os.path.realpath(_SRC), "")):
        sys.stdout.flush()
        sys.stderr.write(f"slopecalc imported from {where}, not from {_SRC}\n")
        sys.stderr.flush()
        os._exit(97)


if _SRC:
    atexit.register(_check)
