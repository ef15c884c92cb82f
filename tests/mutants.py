#!/usr/bin/env python3
"""Semantic mutants of the certification path, each run against tier-1.

    python tests/mutants.py [--only NAME ...] [--timeout SECONDS] [--every-failure]

Each mutant in MUTANTS is one exact text replacement in one file of
`src/slopecalc`: a plausible wrong rule in what a certified answer rests on.
For each, the repository (without `.git`, caches and `BENCH_*.json`) is
copied to a temporary directory, the replacement applied there, and tier-1
(`python -m pytest -q -x`, with `PYTHONPATH=src`) run in the copy under a
wall-clock timeout; the tests that bound their own wall time also run under
`tests/_deadline.py`, so a mutant that makes a call slow fails rather than
hangs.  `-x` stops at the first failing test, since hypothesis shrinks every
failing property at length; `--every-failure` runs the whole suite instead.
A mutant whose text is not found is an error: the list must follow the code.

One line per mutant gives its verdict and the failing tests: "killed"
(some test failed), "survived" (tier-1 passed) or "hung" (past the
timeout).  The survivors are printed last, and the exit status is 1 when
any mutant survived or hung.  Nothing in the repository is written.  pytest
does not collect this file.

References: DeMillo, Lipton and Sayward, "Hints on test data selection",
Computer 11(4), 1978; Jia and Harman, "An analysis and survey of the
development of mutation testing", IEEE TSE 37(5), 2011.
"""

import argparse
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (name, file under src/slopecalc, text, replacement)
MUTANTS = [
    ("violation-widened-to-ge", "hn.py",
     "if inv[3] > bound and inv[0] <= cap[0]:",
     "if inv[3] >= bound and inv[0] <= cap[0]:"),
    ("wa-ignores-negative-degree", "hn.py",
     "    if degree(m) != 0:\n        return Verdict(STATUS_FALSE",
     "    if degree(m) > 0:\n        return Verdict(STATUS_FALSE"),
    ("eigenline-part-dropped", "hn.py",
     "[_eigenvectors(phi, den, r) for r, _ in roots]",
     "[_eigenvectors(phi, den, r) for r, _ in roots[1:]]"),
    ("repeated-root-as-eigenlines", "hn.py",
     "if leftover == 0 and all(mult == 1 for _, mult in roots):",
     "if leftover == 0:"),
    ("sample-certified", "hn.py",
     'return self.strategy != "sample"',
     "return True"),
    ("parts-ignore-n-supports", "hn.py",
     "    if not m.nilpotent.is_zero():\n        nil, _ = int_matrix(m.nilpotent)",
     "    if False:\n        nil, _ = int_matrix(m.nilpotent)"),
    ("t_n-sign-flipped", "hn.py",
     "tns.append(_vp_int(abs(det), p) - _vp_int(abs(scale), p))",
     "tns.append(_vp_int(abs(scale), p) - _vp_int(abs(det), p))"),
    ("scalar-chain-reversed", "hn.py",
     "return _n_closed_sums(lines, ",
     "return _n_closed_sums(lines[::-1], "),
    ("hull-vertex-dropped", "hn.py",
     "for k, _ in hull[1:]:",
     "for k, _ in hull[1:-2] + hull[-1:]:"),
    ("oracle-n-check-disabled", "oracle.py",
     'require(span_contains(basis, m.module.nilpotent.apply(v)), "not N-stable")',
     'require(True, "not N-stable")'),
]

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "BENCH_*.json", ".bench_work")


def run_mutant(name, filename, text, replacement, timeout, every_failure=False) -> tuple:
    """(verdict, failing test ids) of tier-1 on a copy with one mutant applied."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        path = tree / "src" / "slopecalc" / filename
        source = path.read_text(encoding="utf-8")
        if source.count(text) != 1:
            raise SystemExit(f"mutant {name}: its text occurs {source.count(text)} times in {filename}")
        path.write_text(source.replace(text, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors", *(() if every_failure else ("-x",))]
        try:
            proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return "hung", []
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    if proc.returncode == 0:
        return "survived", []
    return "killed", failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [m[0] for m in MUTANTS]
    parser.add_argument("--only", nargs="+", metavar="NAME", choices=names,
                        help="run these mutants only: " + ", ".join(names))
    parser.add_argument("--timeout", type=float, default=900, help="seconds per tier-1 run")
    parser.add_argument("--every-failure", action="store_true",
                        help="run the whole suite per mutant, not up to its first failure")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.only or m[0] in args.only]
    bad = []
    for name, filename, text, replacement in chosen:
        verdict, failed = run_mutant(name, filename, text, replacement, args.timeout,
                                     args.every_failure)
        shown = ", ".join(failed[:3]) + (f" (+{len(failed) - 3} more)" if len(failed) > 3 else "")
        print(f"{name}: {verdict}" + (f", {len(failed)} failed: {shown}" if failed else ""),
              flush=True)
        if verdict != "killed":
            bad.append(f"{name} ({verdict})")
    print("survivors: " + (", ".join(bad) if bad else "none"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
