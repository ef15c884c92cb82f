"""Record the CLI golden digests: python3 bench/record_golden.py

Runs every fixture in tests/fixtures once through `python -m slopecalc` and
writes the exit code and the SHA-256 of stdout to bench/golden.json.  The
cli-corpus workload fails any call whose output differs.  Re-record only
when a change of output is intended, and say so where the change is made.
"""

import json
import os
import sys

from run import BENCH, ROOT, cli_call, fixtures


def main():
    golden = {}
    for name, spec in fixtures():
        code, digest, _ = cli_call(spec)
        golden[name] = {"exit": code, "stdout_sha256": digest}
    with open(os.path.join(BENCH, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} fixtures under {ROOT}", file=sys.stderr)


if __name__ == "__main__":
    main()
