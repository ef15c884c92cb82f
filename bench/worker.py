"""Benchmark worker: one fresh process, one closed-loop caller.

    python3 bench/worker.py INPUTS.json setup
    python3 bench/worker.py INPUTS.json run SECONDS TRACE
    python3 bench/worker.py INPUTS.json replay COUNT
    python3 bench/worker.py CORPUS.json cli

It imports slopecalc from the checkout's src/ (and refuses any other copy),
parses every input into library objects, prints "ready", and then, unless
the mode is `setup`, runs the warm-up items, times the timed items one call
at a time (whole rounds for about SECONDS, or the first COUNT items), and
prints one JSON line with the per-call wall times, the time of the reference
kernel run before each call, the outputs and ru_maxrss.
The `cli` mode instead runs `cli.run` in-process over the fixture corpus.
"""

import gc
import json
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_slopecalc():
    sys.path.insert(0, SRC)
    import slopecalc

    where = os.path.realpath(slopecalc.__file__)
    if not where.startswith(os.path.join(os.path.realpath(SRC), "")):
        raise SystemExit(f"slopecalc imported from {where}, not from {SRC}")
    return slopecalc


def parsers(sc):
    """query -> (parse JSON input into library objects, call, output to JSON)."""
    from slopecalc import bc, diagram, hn, sheaf

    def module(obj):
        return hn.FilteredPhiModule.from_obj(obj)

    def to_obj(x):
        return x.to_obj()

    def exact_args(obj):
        arrows = [{"ker": bc.Dimension.from_obj(a["ker"]), "im": bc.Dimension.from_obj(a["im"])}
                  for a in obj["arrows"]]
        return [bc.parse_formal(o) for o in obj["sequence"]], arrows

    # calls look their function up at call time, so a tracer installed
    # after parsing sees every call
    return {
        "hn": (module, lambda m: hn.hn_filtration(m), to_obj),
        "acyclic": (module, lambda m: hn.is_acyclic(m), to_obj),
        "wa": (module, lambda m: hn.is_weakly_admissible(m), to_obj),
        "vst": (module, lambda m: hn.vst_dimension(m), to_obj),
        "battery": (diagram.SyntheticCohomology.from_obj, lambda s: diagram.battery(s), to_obj),
        "dichotomy": (
            lambda o: (sc.PhiModule.from_obj(o["hk"]), sc.HodgeData.from_obj(o["lattice"]), o["r"]),
            lambda a: diagram.dichotomy(*a),
            to_obj,
        ),
        "cohdim": (sheaf.FFSheaf.from_obj, lambda s: sheaf.cohomology_dim(s), to_obj),
        "hom": (
            lambda o: (sheaf.FFSheaf.from_obj(o["a"]), sheaf.FFSheaf.from_obj(o["b"])),
            lambda a: sheaf.hom_dim(*a),
            to_obj,
        ),
        "canfil": (
            bc.BCObject.from_obj,
            lambda w: bc.canonical_filtration(w),
            lambda parts: [p.to_obj() for p in parts],
        ),
        "exact": (exact_args, lambda a: bc.check_exact(*a), lambda ok: ok),
        "height": (bc.parse_formal, lambda w: bc.height_functor_rank(w), to_obj),
        "ext": (
            lambda o: (o["x"], o["y"], o["k_degree"]),
            lambda a: bc.ext_tables(*a),
            to_obj,
        ),
        "mv": (
            lambda o: (o["row_a"], o["row_b"], o["r"]),
            lambda a: diagram.mv_check(*a),
            to_obj,
        ),
    }


def reference():
    """A fixed piece of pure-Python rational arithmetic, 0.6-1 ms on a 2 GHz Xeon.

    It is timed right before every call as a gauge of the host's speed at
    that moment; run.py rescales the call's time by it.  It uses only the
    standard library, so no change to slopecalc changes its cost.
    """
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(1, i)
    return s


def timed_loop(items, table, seconds=None, count=None, tracer=None, round_size=1):
    """Call each item once; stop after COUNT items, or at the round boundary
    nearest to SECONDS, so that every run times whole rounds.  Returns the
    calls' times, the reference times taken before them, the loop's wall
    time and the outputs."""
    times, refs, results = [], [], []
    start = perf_counter()
    for i, (query, arg) in enumerate(items):
        if seconds is not None and i and i % round_size == 0:
            elapsed = perf_counter() - start
            if elapsed + elapsed / (i // round_size) / 2 > seconds:
                break
        if count is not None and i >= count:
            break
        r0 = perf_counter()
        reference()
        refs.append(perf_counter() - r0)
        if tracer:
            tracer.begin_call()
        t0 = perf_counter()
        try:
            out = ("ok", table[query][1](arg))
        except Exception as exc:  # a failed call is counted, not fatal
            out = ("error", f"{type(exc).__name__}: {exc}")
        times.append(perf_counter() - t0)
        results.append((query, out))
    wall = perf_counter() - start
    outputs = []
    for query, (status, value) in results:
        outputs.append(table[query][2](value) if status == "ok" else {"error": value})
    return times, refs, wall, outputs


def cli_passes(path):
    """In-process cli.run over the corpus: warm, untraced and traced passes."""
    import hashlib
    import io

    import_slopecalc()
    from slopecalc import cli
    from tracer import Tracer

    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    print("ready", flush=True)

    def one(fixture):
        real_in, real_out = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(json.dumps(fixture["input"])), io.StringIO()
        start = perf_counter()
        try:
            code = cli.run([fixture["command"], "--input", "-"])
        finally:
            wall = perf_counter() - start
            out = sys.stdout.getvalue()
            sys.stdin, sys.stdout = real_in, real_out
        return code, hashlib.sha256(out.encode()).hexdigest(), wall

    failures, walls = [], {}
    for name, fixture in spec["fixtures"]:
        one(fixture)
    for name, fixture in spec["fixtures"]:
        code, digest, walls[name] = one(fixture)
        want = spec["golden"][name]
        if (code, digest) != (want["exit"], want["stdout_sha256"]):
            failures.append(f"{name}: in-process output differs from golden")
    tracer = Tracer()
    tracer.install()
    traced = 0.0
    for name, fixture in spec["fixtures"]:
        tracer.begin_call()
        traced += one(fixture)[2]
    tracer.uninstall()
    print(json.dumps({
        "walls": walls,
        "untraced_wall": sum(walls.values()),
        "traced_wall": traced,
        "failures": failures,
        "layers": tracer.metrics(),
    }), flush=True)


def main(argv):
    path, mode = argv[1], argv[2]
    if mode == "cli":
        return cli_passes(path)
    sc = import_slopecalc()
    table = parsers(sc)
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    warm = [(it["query"], table[it["query"]][0](it["input"])) for it in spec["warm"]]
    timed = [(it["query"], table[it["query"]][0](it["input"])) for it in spec["timed"]]
    print("ready", flush=True)
    if mode == "setup":
        return
    # the parsed inputs live all run: keep them out of the collections that
    # the program's own allocations trigger
    gc.collect()
    gc.freeze()
    tracer = None
    if mode == "run" and argv[4] == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    timed_loop(warm, table)
    if tracer:
        tracer.reset()
    if mode == "run":
        times, refs, wall, outputs = timed_loop(
            timed, table, seconds=float(argv[3]), tracer=tracer, round_size=spec["round"]
        )
    else:
        times, refs, wall, outputs = timed_loop(timed, table, count=int(argv[3]))
    result = {
        "times": times,
        "refs": refs,
        "wall": wall,
        "outputs": outputs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv)
