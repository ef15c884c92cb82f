"""Command-line interface: JSON in, JSON (or SVG) out.

Exit codes: 0 certified-true / success, 1 certified-false, 2 uncertified,
3 input error (a malformed command line among them), 4 internal fault (a
failed self-check or oracle check, or any other unexpected exception).
Errors of codes 3 and 4 are reported as one JSON object on stderr, with
nothing on stdout.  `HANDLERS` is the command table: a handler takes the
parsed input, whose keys it reads by `base.json_key` and `json_list`, and
the arguments, and returns (result, exit code); `run` writes a string
result as it is and any other as JSON.  Output is deterministic byte
for byte for a fixed input: `--seed N` is checked to be an int and ignored.
`--oracle` re-derives results along brute-force paths and checks agreement
without changing the output.  Its checks are in `oracle`, which only a call
with `--oracle` loads, and raise explicitly, so they also run under
`python -O`.  The command line is parsed here, by `_parse`, so that no call
loads `argparse`.
"""

from __future__ import annotations

import json
import sys

# Only `base` loads with the CLI; each handler imports the modules its
# command needs, so a call compiles no module it does not use.  Handlers look
# library functions up in their modules at call time, so a function rebound
# there (as a tracer or a test does) is the one called.
from .base import InputError, json_key, json_list, rat_str

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNCERTIFIED = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _exit_code(certified: bool, true: bool) -> int:
    """A verdict's exit code: uncertified 2, else certified-true 0 and certified-false 1."""
    if not certified:
        return EXIT_UNCERTIFIED
    return EXIT_TRUE if true else EXIT_FALSE


# ---------------------------------------------------------------------------
# handlers


def _cmd_newton(obj, args):
    coeffs = json_list(obj, "coefficients", "input")
    p = json_key(obj, "p", "input")
    from .base import newton_polygon

    got = newton_polygon(coeffs, p)
    if args.oracle:
        args.oracle.check_newton(coeffs, p, got)
    return [[rat_str(s), m] for s, m in got], EXIT_TRUE


def _cmd_hodge(obj, args):
    from .filtration import HodgeData, dual_hodge, shift, t_h

    h = HodgeData.from_obj(json_key(obj, "hodge", "input"))
    out = {
        "t_h": t_h(h),
        "weights": list(h.weights),
        "rank": h.rank,
        "dual": dual_hodge(h).to_obj(),
    }
    if "shift" in obj:
        out["shifted"] = shift(h, obj["shift"]).to_obj()
    if args.oracle:
        args.oracle.check_hodge(h)
    return out, EXIT_TRUE


def _filtered(obj):
    from .hn import FilteredPhiModule

    return FilteredPhiModule.from_obj(obj)


def _cmd_hn(obj, args):
    from . import hn

    m = _filtered(obj)
    filt = hn.hn_filtration(m)
    if args.oracle:
        args.oracle.check_hn(m, filt)
    return filt.to_obj(), _exit_code(filt.certified, True)


def _cmd_wa(obj, args):
    from . import hn

    m = _filtered(obj)
    v = hn.is_weakly_admissible(m)
    if args.oracle:
        args.oracle.check_verdict(m, v, "wa")
    return v.to_obj(), _exit_code(v.certified, v.is_true)


def _cmd_acyclic(obj, args):
    from . import hn

    m = _filtered(obj)
    v = hn.is_acyclic(m)
    if args.oracle:
        args.oracle.check_verdict(m, v, "acyclic")
    return v.to_obj(), _exit_code(v.certified, v.is_true)


def _cmd_fn4(obj, args):
    """`fn4_reduce` raises unless its output is certified weakly admissible."""
    from . import hn

    m = _filtered(obj)
    reduced = hn.fn4_reduce(m)
    if args.oracle:
        args.oracle.check_fn4(m, reduced)
    return {"reduced": reduced.to_obj(), "verdict": hn.Verdict(hn.STATUS_TRUE).to_obj()}, EXIT_TRUE


def _cmd_vst(obj, args):
    from . import hn

    m = _filtered(obj)
    res = hn.vst_dimension(m)
    if args.oracle:
        args.oracle.check_vst(m, res)
    return res.to_obj(), _exit_code(res.certified, True)


def _cmd_tensor(obj, args):
    from . import isocrystal

    a = isocrystal.PhiModule.from_obj(json_key(obj, "a", "input"))
    b = isocrystal.PhiModule.from_obj(json_key(obj, "b", "input"))
    out = isocrystal.tensor(a, b)
    if args.oracle:
        args.oracle.check_tensor(a, b, out)
    return out.to_obj(), EXIT_TRUE


def _cmd_cohdim(obj, args):
    from . import sheaf

    s = sheaf.FFSheaf.from_obj(obj)
    dims = sheaf.cohomology_dim(s)
    if args.oracle:
        args.oracle.check_cohdim(s, dims)
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
        args.oracle.check_canfil(w, gt0, eq0, lt0)
    return {"gt0": gt0.to_obj(), "eq0": eq0.to_obj(), "lt0": lt0.to_obj()}, EXIT_TRUE


def _cmd_ext(obj, args):
    from . import bc

    x, y = json_key(obj, "x", "input"), json_key(obj, "y", "input")
    k_degree = json_key(obj, "k_degree", "input", 1)
    triple = bc.ext_tables(x, y, k_degree)
    if args.oracle:
        args.oracle.check_ext(triple, k_degree)
    return triple.to_obj(), EXIT_TRUE


def _cmd_battery(obj, args):
    from . import diagram

    s = diagram.SyntheticCohomology.from_obj(obj)
    report = diagram.battery(s)
    if args.oracle:
        args.oracle.check_battery(report)
    all_true = all(v.is_true for v in report.verdicts().values())
    return report.to_obj(), _exit_code(report.certified, all_true)


def _cmd_dichotomy(obj, args):
    from . import diagram, isocrystal
    from .filtration import HodgeData

    hk = isocrystal.PhiModule.from_obj(json_key(obj, "hk", "input"))
    lattice = HodgeData.from_obj(json_key(obj, "lattice", "input"))
    res = diagram.dichotomy(hk, lattice, json_key(obj, "r", "input"))
    if args.oracle:
        args.oracle.check_dichotomy(res)
    return res.to_obj(), _exit_code(res.certified, res.branch == "surjective")


def _cmd_mv_check(obj, args):
    from . import diagram

    rows = json_key(obj, "row_a", "input"), json_key(obj, "row_b", "input")
    report = diagram.mv_check(*rows, json_key(obj, "r", "input"))
    return report.to_obj(), _exit_code(True, report.equal)


def _cmd_plot(obj, args):
    from . import plot  # the SVG writer compiles only for a call that plots

    polygon = plot.polygon_from_obj(obj)
    if args.format == "json":
        return polygon.to_obj(), EXIT_TRUE
    return plot.svg(polygon), EXIT_TRUE


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


USAGE = "usage: slopecalc COMMAND [--input FILE|-] [--seed N] [--oracle] [--format json|svg]"
FORMATS = ("json", "svg")


class _Args:
    """A parsed command line, as `run` hands it to a handler; `oracle` is the
    `oracle` module under `--oracle`, else None."""

    def __init__(self):
        self.command = None
        self.input = "-"
        self.oracle = None
        self.format = None


def _help() -> str:
    return (f"{USAGE}\n\nexact slope calculus on p-adic Hodge data (JSON in, JSON out)\n\n"
            f"commands: {', '.join(HANDLERS)}\n\n"
            "options:\n"
            "  --input FILE|-     input JSON file, or - for stdin (the default)\n"
            "  --seed N           accepted and ignored: results depend on the input alone\n"
            "  --oracle           cross-check against brute-force paths\n"
            "  --format json|svg  what plot writes (default svg)\n")


def _choice(what: str, value: str, choices) -> str:
    if value not in choices:
        listed = ", ".join(repr(c) for c in choices)
        raise InputError(f"argument {what}: invalid choice: {value!r} (choose from {listed})")
    return value


def _is_option(token: str) -> bool:
    """Whether a token is an option name; "-" (stdin) and "-3" are values."""
    return token.startswith("-") and token != "-" and not token[1:].isdigit()


def _parse(argv) -> _Args:
    """Parse USAGE's grammar: options before or after the command, each as
    `--opt value` or `--opt=value`.  An abbreviated or unknown option, `--`
    among them, a second command or a bad value is an InputError (reported
    in argparse's words); `-h` or `--help` prints the help and exits 0."""
    args = _Args()
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_help())
            raise SystemExit(0)
        if not _is_option(token):
            if args.command is not None:
                raise InputError(f"unrecognized arguments: {token}")
            args.command = _choice("command", token, HANDLERS)
            continue
        name, given, value = token.partition("=")
        if name == "--oracle":
            if given:
                raise InputError(f"argument --oracle: ignored explicit argument {value!r}")
            from . import oracle  # the checks compile only for a call that runs them

            args.oracle = oracle
            continue
        if name not in ("--input", "--seed", "--format"):
            raise InputError(f"unrecognized arguments: {token}")
        if not given:
            value = next(tokens, None)
            if value is None or _is_option(value):
                raise InputError(f"argument {name}: expected one argument")
        if name == "--input":
            args.input = value
        elif name == "--format":
            args.format = _choice("--format", value, FORMATS)
        else:  # --seed: an int, or an input error, and then unused
            try:
                int(value)
            except ValueError:
                raise InputError(f"argument --seed: invalid int value: {value!r}") from None
    if args.command is None:
        raise InputError("the following arguments are required: command")
    return args


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
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args.format == "svg" and args.command != "plot":
            raise InputError("--format svg applies to the plot command only")
        text = _read(args.input)
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            return _emit_error(
                {"error": f"malformed JSON: {exc.msg}", "line": exc.lineno, "column": exc.colno}
            )
        except (RecursionError, ValueError) as exc:  # too deep, or an int past the digit limit
            return _emit_error({"error": f"malformed JSON: {exc}"})
        result, code = HANDLERS[args.command](obj, args)
        if not isinstance(result, str):
            try:
                result = json.dumps(result, sort_keys=True) + "\n"
            except ValueError as exc:  # an int past the digit limit
                raise InputError(f"result too large to print: {exc}") from None
    except InputError as exc:
        return _emit_error({"error": str(exc)})
    except Exception as exc:  # an internal fault must not pass as certified-false
        import traceback

        message = str(exc)
        if not message.startswith("internal:"):
            message = f"internal: {type(exc).__name__}: {message}"
        trace = "".join(traceback.format_exception(exc))
        return _emit_error({"error": message, "traceback": trace}, EXIT_INTERNAL)
    sys.stdout.write(result)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
