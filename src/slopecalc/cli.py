"""Command-line interface: JSON in, JSON (or SVG) out.

Exit codes: 0 certified-true / success, 1 certified-false, 2 uncertified,
3 input error (a malformed command line among them), 4 internal fault (a
failed self-check or oracle check, or any other unexpected exception).
Errors of codes 3 and 4 are reported as one JSON object on stderr, with
nothing on stdout.  `HANDLERS` is the command table: a handler takes the
parsed input and arguments and returns (result, exit code), and `run` writes
a string result as it is and any other as JSON.  Output is deterministic byte
for byte for a fixed input and seed; `--oracle` re-derives results along
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

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNCERTIFIED = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4
SVG_MAX_SPAN = 1000  # grid units on either axis of an SVG plot


def _exit_code(certified: bool, true: bool) -> int:
    """A verdict's exit code: uncertified 2, else certified-true 0 and certified-false 1."""
    if not certified:
        return EXIT_UNCERTIFIED
    return EXIT_TRUE if true else EXIT_FALSE


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

    lattice = hn.enumerate_subobjects(m, seed)
    subs = [lattice.basis(key) for key in lattice.keys]
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


def _cmd_newton(obj, args):
    coeffs = _list(obj, "coefficients")
    p = _need(obj, "p")
    from .rational import newton_polygon

    got = newton_polygon(coeffs, p)
    if args.oracle:
        _oracle_newton(coeffs, p, got)
    return [[rat_str(s), m] for s, m in got], EXIT_TRUE


def _cmd_hodge(obj, args):
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
    if args.oracle:
        _require(t_h(dual_hodge(h)) == -t_h(h), "dual weight sum")
        _require(dual_hodge(dual_hodge(h)).weights == h.weights, "double dual")
    return out, EXIT_TRUE


def _filtered(obj):
    from .hn import FilteredPhiModule

    return FilteredPhiModule.from_obj(obj)


def _cmd_hn(obj, args):
    from . import hn

    filt = hn.hn_filtration(_filtered(obj), args.seed)
    return filt.to_obj(), _exit_code(filt.certified, True)


def _cmd_wa(obj, args):
    from . import hn

    m = _filtered(obj)
    v = hn.is_weakly_admissible(m, args.seed)
    if args.oracle:
        _oracle_verdict(m, v, args.seed, "wa")
    return v.to_obj(), _exit_code(v.certified, v.is_true)


def _cmd_acyclic(obj, args):
    from . import hn

    m = _filtered(obj)
    v = hn.is_acyclic(m, args.seed)
    if args.oracle:
        _oracle_verdict(m, v, args.seed, "acyclic")
    return v.to_obj(), _exit_code(v.certified, v.is_true)


def _cmd_fn4(obj, args):
    """`fn4_reduce` raises unless its output is certified weakly admissible."""
    from . import hn

    reduced = hn.fn4_reduce(_filtered(obj), args.seed)
    return {"reduced": reduced.to_obj(), "verdict": hn.Verdict(hn.STATUS_TRUE).to_obj()}, EXIT_TRUE


def _cmd_vst(obj, args):
    from . import hn

    res = hn.vst_dimension(_filtered(obj), args.seed)
    return res.to_obj(), _exit_code(res.certified, True)


def _cmd_tensor(obj, args):
    from . import isocrystal

    a = isocrystal.PhiModule.from_obj(_need(obj, "a"))
    b = isocrystal.PhiModule.from_obj(_need(obj, "b"))
    out = isocrystal.tensor(a, b)
    if args.oracle:
        lhs = isocrystal.t_n(out)
        rhs = b.rank * isocrystal.t_n(a) + a.rank * isocrystal.t_n(b)
        _require(lhs == rhs, "tensor degree additivity")
    return out.to_obj(), EXIT_TRUE


def _cmd_cohdim(obj, args):
    from . import sheaf

    s = sheaf.FFSheaf.from_obj(obj)
    dims = sheaf.cohomology_dim(s)
    if args.oracle:
        _oracle_cohdim(s, dims)
    return dims.to_obj(), EXIT_TRUE


def _cmd_bc_dim(obj, args):
    from . import bc

    w = bc.parse_formal(obj)
    return bc.dimension(w).to_obj(), EXIT_TRUE


def _cmd_canfil(obj, args):
    from . import bc

    w = bc.BCObject.from_obj(obj)
    gt0, eq0, lt0 = bc.canonical_filtration(w)
    if args.oracle:
        total = gt0.direct_sum(eq0).direct_sum(lt0)
        _require(bc.dimension(total) == bc.dimension(w), "filtration loses pieces")
    return {"gt0": gt0.to_obj(), "eq0": eq0.to_obj(), "lt0": lt0.to_obj()}, EXIT_TRUE


def _cmd_ext(obj, args):
    from . import bc

    triple = bc.ext_tables(_need(obj, "x"), _need(obj, "y"), obj.get("k_degree", 1))
    if args.oracle and triple.unit is not None:
        scale = obj.get("k_degree", 1) if triple.unit == "K" else 1
        chi = scale * (triple.ext0 - triple.ext1 + triple.ext2)
        _require(chi == triple.euler_qp, "Euler characteristic mismatch")
    return triple.to_obj(), EXIT_TRUE


def _cmd_battery(obj, args):
    from . import diagram

    s = diagram.SyntheticCohomology.from_obj(obj)
    report = diagram.battery(s, args.seed)
    if args.oracle and report.certified:
        _require(report.consistent, "certified verdicts disagree")
    all_true = all(v.is_true for v in report.verdicts().values())
    return report.to_obj(), _exit_code(report.certified, all_true)


def _cmd_dichotomy(obj, args):
    from . import diagram, isocrystal
    from .filtration import HodgeData

    hk = isocrystal.PhiModule.from_obj(_need(obj, "hk"))
    lattice = HodgeData.from_obj(_need(obj, "lattice"))
    res = diagram.dichotomy(hk, lattice, _need(obj, "r"), args.seed)
    if args.oracle:
        _require((res.branch == "surjective") == (res.deficit == 0), "branch exclusivity")
    return res.to_obj(), _exit_code(res.certified, res.branch == "surjective")


def _cmd_mv_check(obj, args):
    from . import diagram

    report = diagram.mv_check(_need(obj, "row_a"), _need(obj, "row_b"), _need(obj, "r"))
    return report.to_obj(), _exit_code(True, report.equal)


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


def _cmd_plot(obj, args):
    polygon = _plot_polygon(obj)
    if args.format == "json":
        return {"vertices": [[x, rat_str(y)] for x, y in polygon.vertices]}, EXIT_TRUE
    return _svg(polygon), EXIT_TRUE


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
    "plot": _cmd_plot,
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error, not by argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}") from None


def _emit_error(payload: dict, code: int = EXIT_INPUT) -> int:
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def run(argv=None) -> int:
    parser = _Parser(
        prog="slopecalc",
        description="exact slope calculus on p-adic Hodge data (JSON in, JSON out)",
    )
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--input", default="-", help="input JSON file, or - for stdin")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled searches")
    parser.add_argument(
        "--oracle", action="store_true", help="cross-check against brute-force paths"
    )
    parser.add_argument("--format", choices=("json", "svg"), default=None)
    try:
        args = parser.parse_args(argv)
        if args.format == "svg" and args.command != "plot":
            raise InputError("--format svg applies to the plot command only")
        text = _read(args.input)
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            return _emit_error(
                {"error": f"malformed JSON: {exc.msg}", "line": exc.lineno, "column": exc.colno}
            )
        result, code = HANDLERS[args.command](obj, args)
    except InputError as exc:
        return _emit_error({"error": str(exc)})
    except Exception as exc:  # an internal fault must not pass as certified-false
        import traceback

        message = str(exc)
        if not message.startswith("internal:"):
            message = f"internal: {type(exc).__name__}: {message}"
        trace = "".join(traceback.format_exception(exc))
        return _emit_error({"error": message, "traceback": trace}, EXIT_INTERNAL)
    if not isinstance(result, str):
        result = json.dumps(result, sort_keys=True) + "\n"
    sys.stdout.write(result)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
