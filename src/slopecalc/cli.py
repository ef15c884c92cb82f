"""Command-line interface: JSON in, JSON (or SVG) out.

Exit codes: 0 certified-true / success, 1 certified-false, 2 uncertified,
3 input error, 4 internal fault (a failed self-check or oracle check, or any
other unexpected exception; nothing is written to stdout).  Errors of codes 3
and 4 are reported as one JSON object on stderr.  Output is deterministic
byte for byte for a fixed input and seed; `--oracle` re-derives results along
brute-force paths and checks agreement without changing the output; its
checks raise explicitly, so they also run under `python -O`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

# Only `rational` loads with the CLI; each handler imports the modules its
# command needs, so a call compiles no module it does not use.  Handlers look
# library functions up in their modules at call time, so a function rebound
# there (as a tracer or a test does) is the one called.
from .rational import InputError, Polygon, json_int, rat, rat_str, valuation

COMMANDS = (
    "newton",
    "hodge",
    "hn",
    "wa",
    "acyclic",
    "fn4-reduce",
    "vst",
    "tensor",
    "cohdim",
    "bc-dim",
    "canfil",
    "ext",
    "battery",
    "dichotomy",
    "mv-check",
    "plot",
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNCERTIFIED = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4
SVG_MAX_SPAN = 1000  # grid units on either axis of an SVG plot


def _verdict_exit(status: str) -> int:
    from . import hn

    return {
        hn.STATUS_TRUE: EXIT_TRUE,
        hn.STATUS_FALSE: EXIT_FALSE,
        hn.STATUS_UNCERTIFIED: EXIT_UNCERTIFIED,
    }[status]


def _need(obj, key):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"input JSON needs the key {key!r}")
    return obj[key]


def _list(obj, key) -> list:
    value = _need(obj, key)
    if not isinstance(value, list):
        raise InputError(f"{key!r} must be a JSON list")
    return value


# ---------------------------------------------------------------------------
# oracle cross-checks (raise on disagreement; never alter output)


def _require(ok: bool, what: str) -> None:
    """An oracle check that `python -O` keeps: failure is an internal fault."""
    if not ok:
        raise AssertionError(f"internal: oracle: {what}")


def _oracle_newton(coeffs, p, got):
    pts = [(i, valuation(c, p)) for i, c in enumerate(coeffs) if rat(c) != 0]
    walk = []
    cur = 0
    while cur < len(pts) - 1:
        x0, y0 = pts[cur]
        best = None
        for j in range(cur + 1, len(pts)):
            x1, y1 = pts[j]
            s = Fraction(y1 - y0, x1 - x0)
            if best is None or s < best[0] or (s == best[0] and x1 > pts[best[1]][0]):
                best = (s, j)
        walk.append((-best[0], pts[best[1]][0] - x0))
        cur = best[1]
    walk.sort(key=lambda t: t[0])
    _require(walk == got, "envelope walk disagrees with hull slopes")


def _oracle_verdict(m, verdict, seed, kind):
    """Stability of every element; a certified-true verdict is re-scored on every
    element by `sub_invariants`, a certified-false one on its witness."""
    from . import hn
    from .rational import restriction_matrix, span_contains

    subs = hn.enumerate_subobjects(m, seed).bases
    for basis in subs:
        _require(restriction_matrix(m.module.phi, basis) is not None, "unstable subspace")
        for v in basis:
            _require(span_contains(basis, m.module.nilpotent.apply(v)), "not N-stable")
    total = hn.degree(m)
    bound = 0 if kind == "wa" else total
    if verdict.status == hn.STATUS_TRUE:
        _require(kind != "wa" or total == 0, "weakly admissible module of nonzero degree")
        for basis in subs:
            _, _, _, d = hn.sub_invariants(m, basis)
            _require(d <= bound, "a subobject violates a certified-true verdict")
    if verdict.status == hn.STATUS_FALSE and verdict.witness:
        _, _, _, d = hn.sub_invariants(m, verdict.witness)
        if kind == "wa":
            _require(total != 0 or d > 0, "witness does not violate")
        else:
            _require(d > total, "witness does not violate")


def _oracle_cohdim(s, dims):
    _require(dims.h0.dim - dims.h1.dim == s.degree(), "Euler degree mismatch")
    _require(dims.h0.ht + dims.h1.ht == s.rank(), "Euler rank mismatch")


# ---------------------------------------------------------------------------
# handlers


def _cmd_newton(obj, seed, oracle):
    coeffs = _list(obj, "coefficients")
    p = _need(obj, "p")
    from .rational import newton_polygon

    got = newton_polygon(coeffs, p)
    if oracle:
        _oracle_newton(coeffs, p, got)
    return [[rat_str(s), m] for s, m in got], EXIT_TRUE


def _cmd_hodge(obj, seed, oracle):
    from .filtration import HodgeData, dual_hodge, shift, t_h

    h = HodgeData.from_obj(_need(obj, "hodge"))
    out = {
        "t_h": t_h(h),
        "weights": list(h.weights),
        "rank": h.rank,
        "dual": dual_hodge(h).to_obj(),
    }
    if "shift" in obj:
        out["shifted"] = shift(h, obj["shift"]).to_obj()
    if oracle:
        _require(t_h(dual_hodge(h)) == -t_h(h), "dual weight sum")
        _require(dual_hodge(dual_hodge(h)).weights == h.weights, "double dual")
    return out, EXIT_TRUE


def _filtered(obj):
    from .hn import FilteredPhiModule

    return FilteredPhiModule.from_obj(obj)


def _cmd_hn(obj, seed, oracle):
    from . import hn

    filt = hn.hn_filtration(_filtered(obj), seed)
    return filt.to_obj(), EXIT_TRUE if filt.certified else EXIT_UNCERTIFIED


def _cmd_wa(obj, seed, oracle):
    from . import hn

    m = _filtered(obj)
    v = hn.is_weakly_admissible(m, seed)
    if oracle:
        _oracle_verdict(m, v, seed, "wa")
    return v.to_obj(), _verdict_exit(v.status)


def _cmd_acyclic(obj, seed, oracle):
    from . import hn

    m = _filtered(obj)
    v = hn.is_acyclic(m, seed)
    if oracle:
        _oracle_verdict(m, v, seed, "acyclic")
    return v.to_obj(), _verdict_exit(v.status)


def _cmd_fn4(obj, seed, oracle):
    from . import hn

    m = _filtered(obj)
    reduced = hn.fn4_reduce(m, seed)
    verdict = hn.is_weakly_admissible(reduced, seed)
    return (
        {"reduced": reduced.to_obj(), "verdict": verdict.to_obj()},
        _verdict_exit(verdict.status),
    )


def _cmd_vst(obj, seed, oracle):
    from . import hn

    res = hn.vst_dimension(_filtered(obj), seed)
    return res.to_obj(), EXIT_TRUE if res.certified else EXIT_UNCERTIFIED


def _cmd_tensor(obj, seed, oracle):
    from . import isocrystal

    a = isocrystal.PhiModule.from_obj(_need(obj, "a"))
    b = isocrystal.PhiModule.from_obj(_need(obj, "b"))
    out = isocrystal.tensor(a, b)
    if oracle:
        lhs = isocrystal.t_n(out)
        rhs = b.rank * isocrystal.t_n(a) + a.rank * isocrystal.t_n(b)
        _require(lhs == rhs, "tensor degree additivity")
    return out.to_obj(), EXIT_TRUE


def _cmd_cohdim(obj, seed, oracle):
    from . import sheaf

    s = sheaf.FFSheaf.from_obj(obj)
    dims = sheaf.cohomology_dim(s)
    if oracle:
        _oracle_cohdim(s, dims)
    return dims.to_obj(), EXIT_TRUE


def _cmd_bc_dim(obj, seed, oracle):
    from . import bc

    w = bc.parse_formal(obj)
    return bc.dimension(w).to_obj(), EXIT_TRUE


def _cmd_canfil(obj, seed, oracle):
    from . import bc

    w = bc.BCObject.from_obj(obj)
    gt0, eq0, lt0 = bc.canonical_filtration(w)
    if oracle:
        total = gt0.direct_sum(eq0).direct_sum(lt0)
        _require(bc.dimension(total) == bc.dimension(w), "filtration loses pieces")
    return {"gt0": gt0.to_obj(), "eq0": eq0.to_obj(), "lt0": lt0.to_obj()}, EXIT_TRUE


def _cmd_ext(obj, seed, oracle):
    from . import bc

    triple = bc.ext_tables(_need(obj, "x"), _need(obj, "y"), obj.get("k_degree", 1))
    if oracle and triple.unit is not None:
        scale = obj.get("k_degree", 1) if triple.unit == "K" else 1
        chi = scale * (triple.ext0 - triple.ext1 + triple.ext2)
        _require(chi == triple.euler_qp, "Euler characteristic mismatch")
    return triple.to_obj(), EXIT_TRUE


def _cmd_battery(obj, seed, oracle):
    from . import diagram

    s = diagram.SyntheticCohomology.from_obj(obj)
    report = diagram.battery(s, seed)
    if not report.certified:
        code = EXIT_UNCERTIFIED
    elif all(v.is_true for v in report.verdicts().values()):
        code = EXIT_TRUE
    else:
        code = EXIT_FALSE
    if oracle and report.certified:
        _require(report.consistent, "certified verdicts disagree")
    return report.to_obj(), code


def _cmd_dichotomy(obj, seed, oracle):
    from . import diagram, isocrystal
    from .filtration import HodgeData

    hk = isocrystal.PhiModule.from_obj(_need(obj, "hk"))
    lattice = HodgeData.from_obj(_need(obj, "lattice"))
    res = diagram.dichotomy(hk, lattice, _need(obj, "r"), seed)
    if not res.certified:
        code = EXIT_UNCERTIFIED
    else:
        code = EXIT_TRUE if res.branch == "surjective" else EXIT_FALSE
    if oracle:
        _require((res.branch == "surjective") == (res.deficit == 0), "branch exclusivity")
    return res.to_obj(), code


def _cmd_mv_check(obj, seed, oracle):
    from . import diagram

    report = diagram.mv_check(_need(obj, "row_a"), _need(obj, "row_b"), _need(obj, "r"))
    code = EXIT_TRUE if report.equal else EXIT_FALSE
    return report.to_obj(), code


def _plot_polygon(obj) -> Polygon:
    if not isinstance(obj, dict):
        raise InputError("plot input must be a JSON object")
    if "coefficients" in obj:
        pts = [
            (i, valuation(c, _need(obj, "p")))
            for i, c in enumerate(_list(obj, "coefficients"))
            if rat(c) != 0
        ]
        return Polygon.lower_hull(pts)
    if "weights" in obj:
        ws = sorted(json_int(w, "plot weights") for w in _list(obj, "weights"))
        acc = 0
        verts = [(0, Fraction(0))]
        for i, w in enumerate(ws, start=1):
            acc += w
            verts.append((i, Fraction(acc)))
        return Polygon(verts)
    if "vertices" in obj:
        vertices = _list(obj, "vertices")
        if not all(isinstance(v, list) and len(v) == 2 for v in vertices):
            raise InputError("plot vertices must be [x, y] pairs")
        return Polygon([(json_int(x, "vertex x-coordinates"), rat(y)) for x, y in vertices])
    raise InputError("plot input needs 'coefficients'+'p', 'weights' or 'vertices'")


def _svg(polygon: Polygon) -> str:
    import math

    unit, margin = 40, 30
    xs = [x for x, _ in polygon.vertices]
    ys = [y for _, y in polygon.vertices]
    x0, x1 = min(xs), max(xs)
    ylo = math.floor(min(ys))
    yhi = math.ceil(max(ys))
    if max(x1 - x0, yhi - ylo) > SVG_MAX_SPAN:  # one grid line per unit
        raise InputError(f"an SVG plot spans at most {SVG_MAX_SPAN} units; use --format json")
    width = (x1 - x0) * unit + 2 * margin
    height = (yhi - ylo) * unit + 2 * margin or 2 * margin

    def fx(x):
        return float((x - x0) * unit + margin)

    def fy(y):
        return float((Fraction(yhi) - Fraction(y)) * unit + margin)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for gx in range(x0, x1 + 1):
        out.append(
            f'<line x1="{fx(gx):g}" y1="{fy(yhi):g}" x2="{fx(gx):g}" y2="{fy(ylo):g}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
    for gy in range(ylo, yhi + 1):
        out.append(
            f'<line x1="{fx(x0):g}" y1="{fy(gy):g}" x2="{fx(x1):g}" y2="{fy(gy):g}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
    pts = " ".join(f"{fx(x):g},{fy(y):g}" for x, y in polygon.vertices)
    out.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="2"/>'
    )
    for x, y in polygon.vertices:
        out.append(
            f'<circle cx="{fx(x):g}" cy="{fy(y):g}" r="3" fill="#1f4e9c"/>'
        )
        out.append(
            f'<text x="{fx(x) + 5:g}" y="{fy(y) - 5:g}" font-size="10" '
            f'font-family="monospace" fill="#333333">({x},{rat_str(y)})</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


HANDLERS = {
    "newton": _cmd_newton,
    "hodge": _cmd_hodge,
    "hn": _cmd_hn,
    "wa": _cmd_wa,
    "acyclic": _cmd_acyclic,
    "fn4-reduce": _cmd_fn4,
    "vst": _cmd_vst,
    "tensor": _cmd_tensor,
    "cohdim": _cmd_cohdim,
    "bc-dim": _cmd_bc_dim,
    "canfil": _cmd_canfil,
    "ext": _cmd_ext,
    "battery": _cmd_battery,
    "dichotomy": _cmd_dichotomy,
    "mv-check": _cmd_mv_check,
}


def _emit_error(payload: dict, code: int = EXIT_INPUT) -> int:
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slopecalc",
        description="exact slope calculus on p-adic Hodge data (JSON in, JSON out)",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", default="-", help="input JSON file, or - for stdin")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled searches")
    parser.add_argument(
        "--oracle", action="store_true", help="cross-check against brute-force paths"
    )
    parser.add_argument("--format", choices=("json", "svg"), default=None)
    args = parser.parse_args(argv)

    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        return _emit_error({"error": f"cannot read input: {exc}"})

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return _emit_error(
            {"error": f"malformed JSON: {exc.msg}", "line": exc.lineno, "column": exc.colno}
        )

    try:
        if args.command == "plot":
            polygon = _plot_polygon(obj)
            if args.format == "json":
                out = {"vertices": [[x, rat_str(y)] for x, y in polygon.vertices]}
                sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
            else:
                sys.stdout.write(_svg(polygon))
            return EXIT_TRUE
        if args.format == "svg":
            return _emit_error({"error": "--format svg applies to the plot command only"})
        result, code = HANDLERS[args.command](obj, args.seed, args.oracle)
    except InputError as exc:
        return _emit_error({"error": str(exc)})
    except Exception as exc:  # an internal fault must not pass as certified-false
        import traceback

        message = str(exc)
        if not message.startswith("internal:"):
            message = f"internal: {type(exc).__name__}: {message}"
        trace = "".join(traceback.format_exception(exc))
        return _emit_error({"error": message, "traceback": trace}, EXIT_INTERNAL)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
