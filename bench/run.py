"""slopecalc benchmark: time to a verdict on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  hn-lattice    each generated filtered module queried once, by hn_filtration,
                is_acyclic, vst_dimension or is_weakly_admissible
  battery-mix   battery and dichotomy interleaved with sheaf/bc/diagram calls
  cli-corpus    every fixture of tests/fixtures as a fresh
                `python -m slopecalc CMD --input -`

Every workload is a closed loop with one caller in one worker process.  The
inputs come from bench/gen.py and depend only on the workload and --seed; the
worker receives only the library-format inputs, the construction data stays
here for the oracle.  The library workloads time whole rounds of a fixed
stratified composition, as many as fit in about --seconds.  Warm-up inputs are disjoint from the timed ones and no
timed input repeats within a run, except that cli-corpus cycles its fixed
corpus.  Outputs are checked after the timed loop (bench/oracle.py, or the
golden digests in bench/golden.json); an uncertified answer is not a failure.

A fixed reference kernel (worker.reference) is timed right before every
call and around every set-up, and the end-to-end timings rescale each time
by it, so that they follow the program rather than the speed of a shared
host.  The plain wall-time figures are on the info line.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 a traced worker (bench/tracer.py) reports per-layer counts and
self times instead.  The line before it records the input and fixture
fingerprints and the machine: runs whose fingerprints differ measure
different work and must not be compared.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import gen
import oracle
from worker import reference

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
WORKLOADS = ("hn-lattice", "battery-mix", "cli-corpus")

# Generated rounds per run: enough that the timed loop does not run out of
# fresh inputs within --seconds on this code.
ROUNDS = {"hn-lattice": 10, "battery-mix": 110}
# The tail percentile per workload: the highest of 90/99 that keeps at least
# ten calls beyond it at the call counts this code reaches in a run.  The
# info line states the count.
TAIL_PERCENTILE = {"hn-lattice": 90, "battery-mix": 99, "cli-corpus": 90}
REF_MS = 1.0  # the reference kernel's time that normalized timings are scaled to
REF_SPAN_S = 2.0  # seconds on either side whose reference times gauge a call's host speed
SETUP_SAMPLES = 3  # fresh processes timed to "ready"; setup_s is their median
CLI_SETUP_SAMPLES = 9  # the CLI probe takes a fifth of a second, and one is noisy
REF_BRACKET = 5  # reference-kernel runs right before and after each set-up
CHILD_TIMEOUT = 170

# Layers that must record calls in a traced run of each workload.
REQUIRED = {
    "hn-lattice": (
        "rational.rref", "rational.det", "rational.charpoly", "rational.span",
        "isocrystal.newton_slopes", "isocrystal.dm", "isocrystal.from_slopes",
        "filtration.induced_on_subspace", "filtration.t_h", "hn.enumerate_subobjects",
        "hn.sub_invariants", "hn.hn_filtration", "hn.is_acyclic",
        "hn.is_weakly_admissible", "hn.vst_dimension",
    ),
    "battery-mix": (
        "rational.charpoly", "isocrystal.newton_slopes", "isocrystal.dm",
        "isocrystal.from_slopes", "hn.enumerate_subobjects", "sheaf.cohomology_dim",
        "sheaf.hom_dim", "bc.dimension", "bc.check_exact", "bc.height_functor_rank",
        "bc.ext_tables", "diagram.battery", "diagram.build_modification",
        "diagram.dichotomy", "diagram.mv_check",
    ),
    "cli-corpus": ("cli.run", "hn.fn4_reduce"),
}
CLI_METRICS = ("cli.process_overhead_ms", "cli.import_ms")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# processes


def run_worker(path, mode, *args):
    """Start a worker; return (seconds until it was ready, its result or None)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), path, mode, *map(str, args)],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}")
    return ready, (json.loads(rest) if rest.strip() else None)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(BENCH, "cliguard"), SRC))
    env["SLOPECALC_BENCH_SRC"] = SRC
    return env


def cli_call(spec, env=None):
    """One fresh `python -m slopecalc`: (exit code, stdout digest, wall s)."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "slopecalc", spec["command"], "--input", "-"],
        input=json.dumps(spec["input"]).encode(), capture_output=True,
        cwd=ROOT, env=env or cli_env(), timeout=CHILD_TIMEOUT,
    )
    wall = perf_counter() - start
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), wall


def fixtures():
    out = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            out.append((os.path.basename(path), json.load(fh)))
    return out


def corpus_hash():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# metrics


def tail(times, percentile):
    """Nearest-rank percentile and the number of calls beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def reference_s():
    """One timed run of the reference kernel, in seconds."""
    start = perf_counter()
    reference()
    return perf_counter() - start


def bracketed(sample):
    """Run `sample()`, which returns a set-up time in seconds, between
    reference-kernel runs; return that time rescaled like a call's (see
    normalize), and as measured."""
    refs = [reference_s() for _ in range(REF_BRACKET)]
    plain = sample()
    refs += [reference_s() for _ in range(REF_BRACKET)]
    return plain * REF_MS / 1000 / statistics.median(refs), plain


def normalize(times, refs):
    """Each call's time rescaled to a host on which the reference kernel
    takes REF_MS: the call's wall time over the median time of the kernel
    runs that started within REF_SPAN_S seconds of the call's own."""
    starts, at = [], 0.0
    for t, r in zip(times, refs):
        starts.append(at)
        at += r + t
    out, lo, hi = [], 0, 0
    for i, t in enumerate(times):
        while starts[lo] < starts[i] - REF_SPAN_S:
            lo += 1
        while hi < len(times) and starts[hi] <= starts[i] + REF_SPAN_S:
            hi += 1
        out.append(t * REF_MS / 1000 / statistics.median(refs[lo:hi]))
    return out


def end_to_end(workload, times, refs, setup, certified, rss_kb):
    """End-to-end metrics, and the plain wall-time statistics for the info line.

    The timings, set-up time included, are speed-normalized (see normalize
    and bracketed); the info line has the plain ones.  On a shared 2-vCPU
    virtual machine (2 GHz Xeon) the speed of one fixed call swings by up to
    1.7x for spans longer than a run, which moves the plain throughput,
    median and tail of a run by as much; a call's time over the reference
    kernel's time next to it moves about a third as much.
    """
    norm = normalize(times, refs)
    pct = TAIL_PERCENTILE[workload]
    value, beyond = tail(times, pct)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "calls_per_s_norm": (len(norm) / sum(norm), "1/s"),
        "call_ms_p50_norm": (1000 * statistics.median(norm), "ms"),
        "call_ms_tail_norm": (1000 * tail(norm, pct)[0], "ms"),
        "certified_ratio": (certified / len(times), "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return metrics, {
        "setup_s_plain": statistics.median(plain for _, plain in setup),
        "calls": len(times), "reference_ms_p50": 1000 * statistics.median(refs),
        "calls_per_s": len(times) / sum(times), "call_ms_p50": 1000 * statistics.median(times),
        "call_ms_tail": 1000 * value, "tail_percentile": pct, "tail_samples_beyond": beyond,
    }


# ---------------------------------------------------------------------------
# library workloads


def run_library(workload, seed, seconds, trace):
    warm, timed = gen.WORKLOADS[workload](seed, ROUNDS[workload])
    info = {"inputs_sha256": gen.fingerprint(warm + timed), "fixtures_sha256": corpus_hash()}
    path = os.path.join(WORK, f"inputs-{workload}-{seed}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "warm": [{"query": it["query"], "input": it["input"]} for it in warm],
            "timed": [{"query": it["query"], "input": it["input"]} for it in timed],
            "round": gen.ROUND_SIZE[workload],
        }, fh)
    try:
        setup = [bracketed(lambda: run_worker(path, "setup")[0]) for _ in range(SETUP_SAMPLES)]
        result = run_worker(path, "run", seconds / 2 if trace else seconds, int(trace))[1]
        replay = run_worker(path, "replay", len(result["times"]))[1] if trace else None
    finally:
        os.remove(path)
    failures, certified = [], 0
    for item, out in zip(timed, result["outputs"]):
        reason = oracle.check(item, out)
        if reason:
            failures.append(f"{item['query']}: {reason}")
        elif oracle.certified(item, out):
            certified += 1
    times = result["times"]
    if len(times) == len(timed):
        info["note"] = "the timed loop used every generated input"
    if trace:
        layers = {k: tuple(v) for k, v in result["layers"].items()}
        traced, untraced = (sum(normalize(r["times"], r["refs"])) for r in (result, replay))
        layers["trace.overhead_ratio"] = (traced / untraced, "ratio")
        for name in CLI_METRICS:
            layers[name] = (0.0, "ms")
        metrics = layers
    else:
        metrics, extra = end_to_end(workload, times, result["refs"], setup, certified,
                                    result["maxrss_kb"])
        extra["loop_wall_s"] = result["wall"]
        info.update(extra)
    return metrics, len(times), failures, info


# ---------------------------------------------------------------------------
# cli-corpus


def run_cli(seed, seconds, trace):
    with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    corpus = fixtures()
    info = {"inputs_sha256": gen.fingerprint(gen.cli_warmup(seed)), "fixtures_sha256": corpus_hash()}
    env = cli_env()
    probe = "import time; t = time.perf_counter(); import slopecalc.cli; print(time.perf_counter() - t)"
    imports = []

    def spawn():
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=CHILD_TIMEOUT)
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"import probe exited with {proc.returncode}: {proc.stderr.strip()}")
        imports.append(float(proc.stdout))
        return wall

    setup = [bracketed(spawn) for _ in range(CLI_SETUP_SAMPLES)]
    # warm-up on inputs outside the corpus
    for spec in gen.cli_warmup(seed):
        if cli_call(spec, env)[0] not in (0, 1, 2):
            raise BenchError("warm-up CLI call failed")
    budget = seconds / 2 if trace else seconds
    times, refs, walls, failures, certified = [], [], {}, [], 0
    start = perf_counter()
    passes = 0
    # whole passes over the corpus, stopping at the pass boundary nearest to
    # the budget, as the worker does with rounds
    while not passes or (perf_counter() - start) * (1 + 0.5 / passes) <= budget:
        passes += 1
        for name, spec in corpus:
            refs.append(reference_s())
            code, digest, wall = cli_call(spec, env)
            times.append(wall)
            walls.setdefault(name, []).append(wall)
            want = golden.get(name)
            if want is None or (code, digest) != (want["exit"], want["stdout_sha256"]):
                failures.append(f"{name}: exit {code}, stdout {digest[:12]} differs from golden")
            elif code in (0, 1):
                certified += 1
    loop_wall = perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not trace:
        metrics, extra = end_to_end("cli-corpus", times, refs, setup, certified, rss_kb)
        info.update(extra, loop_wall_s=loop_wall)
        return metrics, len(times), failures, info
    path = os.path.join(WORK, f"cli-{seed}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fixtures": [[name, spec] for name, spec in corpus], "golden": golden}, fh)
    try:
        inproc = run_worker(path, "cli")[1]
    finally:
        os.remove(path)
    failures.extend(inproc["failures"])
    attempted = len(times) + len(inproc["walls"])
    layers = {k: tuple(v) for k, v in inproc["layers"].items()}
    overhead = [statistics.median(walls[name]) - inproc["walls"][name] for name in walls]
    layers["cli.process_overhead_ms"] = (1000 * statistics.median(overhead), "ms")
    layers["cli.import_ms"] = (1000 * statistics.median(imports), "ms")
    layers["trace.overhead_ratio"] = (inproc["traced_wall"] / inproc["untraced_wall"], "ratio")
    return layers, attempted, failures, info


# ---------------------------------------------------------------------------


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "slopecalc", "__init__.py")) or not os.path.isdir(FIXTURES):
        sys.exit(f"no slopecalc checkout around {BENCH}: src/slopecalc and tests/fixtures are needed")
    os.makedirs(WORK, exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "cli-corpus":
        metrics, attempted, failures, info = run_cli(args.seed, args.seconds, trace)
    else:
        metrics, attempted, failures, info = run_library(args.workload, args.seed, args.seconds, trace)
    missing = []
    if trace:
        missing = [layer for layer in REQUIRED[args.workload] if not metrics[f"{layer}.calls"][0]]
        info["layers_without_calls"] = missing
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, machine=machine(),
                fail_ratio=len(failures) / attempted, failures=failures[:5])
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures and not missing,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        sys.exit(f"benchmark failed: {exc}")
