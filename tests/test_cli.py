import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from slopecalc import cli, hn

from _deadline import deadline
from _generators import one_level_family
from test_hn import _doubled_vertex, _n_moved_line, _unnested_vertex, _unstable_sample

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(capsys, command, payload, *flags, text=None):
    import io
    import sys

    raw = text if text is not None else json.dumps(payload)
    old = sys.stdin
    sys.stdin = io.StringIO(raw)
    try:
        code = cli.run([command, "--input", "-", *flags])
    finally:
        sys.stdin = old
    captured = capsys.readouterr()
    return code, captured.out, captured.err


WA_TRUE = {
    "module": {"p": 2, "phi": [["1", "0"], ["0", "2"]], "N": [["0", "0"], ["0", "0"]]},
    "hodge": {"flag": [{"index": 1, "basis": [["0", "1"]]}], "rank": 2},
}


BIG_DIGITS = "1" + "0" * 3000


class TestExitCodes:
    def test_wa_true_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "wa", WA_TRUE)
        assert code == 0
        assert json.loads(out) == {"status": "certified-true", "witness": None}

    def test_newton_output(self, capsys):
        code, out, _ = run_cli(capsys, "newton", {"coefficients": ["-2", "0", "1"], "p": 2})
        assert code == 0
        assert json.loads(out) == [["1/2", 2]]

    def test_battery_failure_exits_one(self, capsys):
        payload = {
            "r": 1,
            "degrees": {
                "r": {
                    "hk": {"p": 2, "phi": [["2"]], "N": [["0"]]},
                    "lattice": {"flag": [{"index": 0, "basis": [["1"]]}], "rank": 1},
                },
                "r-1": None,
            },
        }
        code, out, _ = run_cli(capsys, "battery", payload)
        assert code == 1
        report = json.loads(out)
        assert report["verdict_d"]["status"] == "certified-false"
        assert report["consistent"] is True

    def test_uncertified_exits_two(self, capsys):
        payload = {
            "module": {"p": 2, "phi": [["1", "1"], ["0", "1"]], "N": [["0", "0"], ["0", "0"]]},
            "hodge": {"flag": [{"index": 0, "basis": [["1", "0"], ["0", "1"]]}], "rank": 2},
        }
        code, out, _ = run_cli(capsys, "wa", payload)
        assert code == 2
        assert json.loads(out)["status"] == "uncertified"

    def test_malformed_json_exits_three(self, capsys):
        code, out, err = run_cli(capsys, "newton", None, text="{nope")
        assert code == 3 and out == ""
        report = json.loads(err)
        assert "error" in report and report["line"] == 1

    @pytest.mark.parametrize("stdin", [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"coefficients": [' + b"1" * 5000 + b', 1], "p": 2}',
    ], ids=["nesting-past-the-recursion-limit", "integer-past-the-digit-limit"])
    def test_json_past_the_interpreter_limits_exits_three(self, stdin):
        proc = _python("-m", "slopecalc", "newton", stdin=stdin)
        assert proc.returncode == 3 and proc.stdout == b""
        assert json.loads(proc.stderr)["error"].startswith("malformed JSON: ")

    @pytest.mark.parametrize("command, payload", [
        ("tensor", {"a": {"p": 2, "phi": [[BIG_DIGITS]]}, "b": {"p": 2, "phi": [[BIG_DIGITS]]}}),
        ("bc-dim", {"summands": [{"type": "Ueff", "d": int(BIG_DIGITS),
                                  "h": int(BIG_DIGITS) + 1, "copies": int(BIG_DIGITS)}]}),
    ], ids=["rational-past-the-digit-limit", "integer-past-the-digit-limit"])
    def test_result_past_the_digit_limit_exits_three(self, command, payload):
        # each input number has 3001 digits; the result has one of 6001
        proc = _python("-m", "slopecalc", command, stdin=json.dumps(payload).encode())
        assert proc.returncode == 3 and proc.stdout == b""
        assert json.loads(proc.stderr)["error"].startswith("result too large to print: ")

    def test_schema_error_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "newton", {"p": 2})
        assert code == 3
        assert "coefficients" in json.loads(err)["error"]

    def test_non_prime_rejected(self, capsys):
        code, _, err = run_cli(capsys, "newton", {"coefficients": ["1", "1"], "p": 6})
        assert code == 3
        assert json.loads(err)

    @deadline(2)  # twice the bound asserted below, so a regression fails rather than hangs
    def test_large_prime_answers_quickly(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "newton", {"coefficients": ["1", "0", "1"], "p": 2**61 - 1})
        assert code == 0 and json.loads(out) == [["0", 2]]
        assert time.perf_counter() - start < 1

    @deadline(20)  # twice the bound asserted below
    def test_rank_32_slope_chain_answers_quickly(self, capsys):
        # phi = diag(1, 2, ..., 2^31) with N moving each line to the one
        # before: 33 N-closed sums of 32 slope blocks, no 2^32 mask scan
        n = 32
        phi = [[str(2**i) if i == j else "0" for j in range(n)] for i in range(n)]
        nil = [["1" if j == i + 1 else "0" for j in range(n)] for i in range(n)]
        ident = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        payload = {
            "module": {"p": 2, "phi": phi, "N": nil},
            "hodge": {"flag": [{"index": 0, "basis": ident}, {"index": 1, "basis": ident[:16]}],
                      "rank": n},
        }
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "hn", payload)
        assert time.perf_counter() - start < 10
        filt = json.loads(out)
        assert code == 0 and filt["certified"] and filt["steps"][-1]["rank"] == n

    def test_prime_beyond_the_proven_bound_rejected(self, capsys):
        payload = {"coefficients": ["1", "1"], "p": 3317044064679887385962123}
        code, _, err = run_cli(capsys, "newton", payload)
        assert code == 3
        assert "primality" in json.loads(err)["error"]


class TestPlot:
    def test_svg_output(self, capsys):
        code, out, _ = run_cli(capsys, "plot", {"coefficients": ["4", "-4", "1"], "p": 2})
        assert code == 0
        assert out.startswith("<?xml")
        assert "<polyline" in out and "</svg>" in out

    def test_json_vertices(self, capsys):
        code, out, _ = run_cli(capsys, "plot", {"weights": [0, 1]}, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"vertices": [[0, "0"], [1, "0"], [2, "1"]]}

    def test_svg_format_rejected_elsewhere(self, capsys):
        code, _, err = run_cli(
            capsys, "newton", {"coefficients": ["-1", "1"], "p": 2}, "--format", "svg"
        )
        assert code == 3
        assert json.loads(err)


class TestDeterminism:
    def test_same_bytes_across_runs(self, capsys):
        payload = {
            "module": {"p": 2, "phi": [["1", "0"], ["0", "2"]], "N": [["0", "0"], ["0", "0"]]},
            "hodge": {"flag": [{"index": 1, "basis": [["1", "0"]]}], "rank": 2},
        }
        runs = [run_cli(capsys, "hn", payload) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_oracle_does_not_change_output(self, capsys):
        plain = run_cli(capsys, "wa", WA_TRUE)
        oracled = run_cli(capsys, "wa", WA_TRUE, "--oracle")
        assert plain == oracled

    def test_seed_flag_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "wa", WA_TRUE, "--seed", "7")
        assert code == 0


def test_missing_input_file_reports_json(capsys):
    code = cli.run(["newton", "--input", "/nonexistent/path.json"])
    captured = capsys.readouterr()
    assert code == 3
    assert "error" in json.loads(captured.err)


def test_undecodable_input_file_reports_json(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"p": "\xff"}')
    code = cli.run(["newton", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err)["error"].startswith("cannot read input: ")


class TestMalformedCommandLine:
    """A bad command line is an input error, reported like any other."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["nosuch"],
            [],
            ["hn", "--seed", "abc"],
            ["plot", "--format", "xml"],
            ["newton", "--format", "svg"],
            ["hn", "--input"],
            ["hn", "--bogus"],
            ["hn", "--inp", "-"],
            ["hn", "wa"],
            ["--oracle=1"],
        ],
        ids=["unknown-command", "missing-command", "seed-not-int", "format-xml", "svg-not-plot",
             "input-without-value", "unknown-option", "abbreviated-option", "second-command",
             "oracle-with-value"],
    )
    def test_exits_three_with_json_on_stderr(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(WA_TRUE)))
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT == 3 and captured.out == ""
        assert list(json.loads(captured.err)) == ["error"]

    def test_a_seed_that_is_not_an_int_keeps_its_message(self, capsys):
        # a seed is checked, then ignored (tests/test_golden.py)
        code, out, err = run_cli(capsys, "hn", WA_TRUE, "--seed", "abc")
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "argument --seed: invalid int value: 'abc'"}

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: slopecalc")

    def test_fresh_process_exits_three(self):
        proc = _python("-m", "slopecalc", "nosuch")
        assert proc.returncode == 3 and proc.stdout == b""
        assert "invalid choice" in json.loads(proc.stderr)["error"]


def test_equals_form_and_options_before_the_command_read_the_same(capsys, monkeypatch):
    runs = []
    for argv in (
        ["wa", "--input", "-", "--seed", "3", "--oracle"],
        ["wa", "--input=-", "--seed=3", "--oracle"],
        ["--oracle", "--seed", "3", "--input", "-", "wa"],
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(WA_TRUE)))
        runs.append((cli.run(argv), capsys.readouterr()))
    assert runs[0][0] == 0 and runs[0][1].out
    assert runs[0] == runs[1] == runs[2]


def test_readme_usage_line_is_the_first_line_of_help(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    with pytest.raises(SystemExit):
        cli.run(["--help"])
    assert block.strip().splitlines()[0] == capsys.readouterr().out.splitlines()[0]


def test_fn4_reduce_decides_admissibility_once(capsys, monkeypatch):
    # fn4_reduce's last step certifies its output weakly admissible; the
    # command reports that verdict without deciding it again
    callers = []
    decide = hn.is_weakly_admissible

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return decide(*args, **kwargs)

    monkeypatch.setattr(hn, "is_weakly_admissible", counted)
    spec = json.loads((ROOT / "tests" / "fixtures" / "fn4_unit_line.json").read_text())
    code, out, _ = run_cli(capsys, "fn4-reduce", spec["input"])
    assert callers == ["fn4_reduce"]
    assert code == 0 and json.loads(out)["verdict"] == {"status": "certified-true", "witness": None}


class TestInternalFaults:
    @pytest.mark.parametrize(
        "fault, message",
        [
            (AssertionError("internal: injected fault"), "internal: injected fault"),
            (ZeroDivisionError("injected"), "internal: ZeroDivisionError: injected"),
        ],
    )
    def test_fault_exits_four_with_json_on_stderr(self, capsys, monkeypatch, fault, message):
        def broken(*args, **kwargs):
            raise fault

        monkeypatch.setattr(hn, "hn_filtration", broken)
        code, out, err = run_cli(capsys, "hn", WA_TRUE)
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        report = json.loads(err)
        assert report["error"] == message
        assert "broken" in report["traceback"]

    def test_key_error_inside_the_parse_exits_four(self, capsys, monkeypatch):
        # only the lookups of "module" and "hodge" are input errors
        from slopecalc.filtration import HodgeData

        def broken(obj):
            raise KeyError("injected")

        monkeypatch.setattr(HodgeData, "from_obj", broken)
        code, out, err = run_cli(capsys, "wa", WA_TRUE)
        assert code == cli.EXIT_INTERNAL and out == ""
        assert json.loads(err)["error"] == "internal: KeyError: 'injected'"

    @pytest.mark.parametrize("key", ["module", "hodge"])
    def test_missing_module_or_hodge_exits_three(self, capsys, key):
        payload = {k: v for k, v in WA_TRUE.items() if k != key}
        code, out, err = run_cli(capsys, "wa", payload)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == f"filtered module JSON missing key {key!r}"

    def test_failed_oracle_exits_four(self, capsys, monkeypatch):
        # span(e1) has degree 0, so it cannot witness that WA_TRUE is not
        # weakly admissible; the oracle must reject the doctored verdict
        def doctored(m):
            return hn.Verdict(hn.STATUS_FALSE, ((1, 0),))

        monkeypatch.setattr(hn, "is_weakly_admissible", doctored)
        plain = run_cli(capsys, "wa", WA_TRUE)
        assert plain[0] == 1
        code, out, err = run_cli(capsys, "wa", WA_TRUE, "--oracle")
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "internal: oracle: witness does not violate"

    @pytest.mark.parametrize("doctor, message", [
        (lambda out: (out.phi.scale(out.p), out.nilpotent), "tensor degree additivity"),
        (lambda out: (out.phi, out.phi), "tensor product breaks N.phi = p.phi.N"),
    ], ids=["phi-times-p", "n-is-phi"])
    def test_doctored_tensor_product_exits_four(self, capsys, monkeypatch, doctor, message):
        # the product keeps the t_N the formula gives, so only the oracle's
        # own determinant and products can see the doctored matrices
        from slopecalc import isocrystal

        real = isocrystal.tensor

        def doctored(a, b):
            out = real(a, b)
            return isocrystal.PhiModule._trusted(out.p, *doctor(out), out.tn)

        monkeypatch.setattr(isocrystal, "tensor", doctored)
        payload = json.loads((ROOT / "tests" / "fixtures" / "tensor_half_half.json").read_text())
        assert run_cli(capsys, "tensor", payload["input"])[0] == 0
        code, out, err = run_cli(capsys, "tensor", payload["input"], "--oracle")
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == f"internal: oracle: {message}"

    @pytest.mark.parametrize(
        "doctor, message",
        [
            (lambda: _unnested_vertex(True), "internal: the HN vertex at rank 2 misses"),
            (_doubled_vertex, "internal: 2 elements reach the HN vertex"),
            (_unstable_sample, "internal: a lattice part is not Frobenius-stable"),
        ],
        ids=["unnested", "doubled", "unstable-sample"],
    )
    def test_doctored_hn_lattice_exits_four(self, capsys, monkeypatch, doctor, message):
        m, lattice = doctor()
        monkeypatch.setattr(hn, "enumerate_subobjects", lambda m: lattice)
        code, out, err = run_cli(capsys, "hn", m.to_obj())
        assert code == 4 and out == ""
        assert json.loads(err)["error"].startswith(message)

    @pytest.mark.parametrize("command", ["hn", "wa", "acyclic"])
    def test_returned_subspace_that_n_moves_exits_four(self, capsys, monkeypatch, command):
        m, lattice = _n_moved_line()
        monkeypatch.setattr(hn, "enumerate_subobjects", lambda m: lattice)
        code, out, err = run_cli(capsys, command, m.to_obj())
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == N_MOVED

    def test_oracle_rejects_a_lattice_element_that_n_moves(self, capsys, monkeypatch):
        # with weights 0 on e1 and 1 on e2, span(e2), which N moves, has
        # degree 0: no decider returns it, so only the oracle's stability
        # check of every lattice element sees it
        from slopecalc.filtration import HodgeData

        m, lattice = _n_moved_line()
        payload = hn.FilteredPhiModule(m.module, HodgeData.from_flag([(1, [[0, 1]])], rank=2))
        monkeypatch.setattr(hn, "enumerate_subobjects", lambda m: lattice)
        code, out, _ = run_cli(capsys, "wa", payload.to_obj())
        assert code == 0 and json.loads(out) == {"status": "certified-true", "witness": None}
        code, out, err = run_cli(capsys, "wa", payload.to_obj(), "--oracle")
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "internal: oracle: not N-stable"


N_MOVED = "internal: the re-check rejects a returned subspace: subspace is not N-stable"

MV = json.loads((ROOT / "tests" / "fixtures" / "mvcheck_identical.json").read_text())["input"]
MV_OBJECTS = MV["row_a"]["objects"]


class TestMalformedInput:
    """Wrongly typed fields are input errors (exit 3), never answers or faults."""

    HN_BAD_N = {
        "module": {"p": 2, "phi": [["1", "0"], ["0", "2"]], "N": [["1", "0"], ["0", "0"]]},
        "hodge": WA_TRUE["hodge"],
    }

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("newton", {"coefficients": "12", "p": 2}),
            ("bc-dim", {"summands": [{"type": "Ueff", "d": 1, "h": 1, "copies": "2"}]}),
            ("bc-dim", {"summands": [{"type": "Qp", "n": "x"}]}),
            ("cohdim", {"bundle": [{"slope": "1", "copies": "a"}]}),
            ("hn", HN_BAD_N),
            ("plot", {"weights": ["1", 2.5]}),
            ("plot", {"vertices": [[0, "0"], [1.9, "1"]]}),
            ("dichotomy", {"hk": WA_TRUE["module"], "lattice": WA_TRUE["hodge"], "r": "1"}),
            ("hn", {"module": WA_TRUE["module"], "hodge": {"flag": 5, "rank": 2}}),
            ("wa", {"module": {"p": 2, "phi": ["10", "02"]}, "hodge": WA_TRUE["hodge"]}),
            ("wa", {"module": WA_TRUE["module"],
                    "hodge": {"flag": [{"index": 1, "basis": ["01"]}], "rank": 2}}),
            ("hn", {"module": {**WA_TRUE["module"], "N": 0}, "hodge": WA_TRUE["hodge"]}),
            ("hn", {"module": {**WA_TRUE["module"], "phi": [["1", "0"], 0]},
                    "hodge": WA_TRUE["hodge"]}),
            ("hn", {"module": WA_TRUE["module"],
                    "hodge": {"flag": [{"index": 1, "basis": True}], "rank": 2}}),
            ("hn", {"module": WA_TRUE["module"],
                    "hodge": {"flag": [{"index": 1, "basis": [True]}], "rank": 2}}),
            ("hodge", {"hodge": {"weights": 0}}),
            ("bc-dim", {"summands": [{"type": "Ueff", "d": 2, "h": 0, "copies": 1}]}),
            ("bc-dim", {"summands": [{"type": "Ueff", "d": 1, "h": 2, "copies": 2},
                                     {"type": "Ueff", "d": 1, "h": 2, "copies": -1}]}),
            ("bc-dim", {"summands": [{"type": "Qp", "n": -1}, {"type": "Qp", "n": 2}]}),
            ("mv-check", {**MV, "row_a": {**MV["row_a"], "objects": [None, *MV_OBJECTS[1:]]}}),
            ("mv-check", {**MV, "row_a": {**MV["row_a"], "objects": ["x", *MV_OBJECTS[1:]]}}),
            ("mv-check", {"r": 0, "row_a": {"objects": 0, "arrows": []},
                          "row_b": {"objects": [{"summands": []}], "arrows": []}}),
            ("mv-check", {"r": 0, "row_a": {"objects": [{"summands": []}], "arrows": None},
                          "row_b": {"objects": [{"summands": []}], "arrows": []}}),
            ("plot", {"weights": [0, 10**30]}),
            ("plot", {"vertices": [[0, "0"], [10**30, "1"]]}),
            ("hodge", {"hodge": {"flag": [{"index": 0, "basis": [["1", "0"]]},
                                          {"index": 3_000_000, "basis": []}], "rank": 2}}),
            ("hodge", {"hodge": {"flag": [{"index": 0, "basis": [["1", "0"]]},
                                          {"index": 10**30, "basis": []}], "rank": 2}}),
        ],
        ids=[
            "newton-string", "bcdim-copies", "bcdim-qp-n", "cohdim-copies", "hn-bad-n",
            "plot-weights", "plot-vertex-x", "dichotomy-r", "hn-flag-not-list",
            "wa-string-phi-rows", "wa-string-basis-rows", "hn-n-not-a-matrix",
            "hn-phi-row-not-a-list", "hn-flag-basis-bool", "hn-flag-basis-row-bool",
            "hodge-weights-not-a-list", "bcdim-zero-h", "bcdim-negative-copies-merged",
            "bcdim-negative-qp-merged",
            "mvcheck-null-object",
            "mvcheck-string-object", "mvcheck-objects-not-a-list", "mvcheck-arrows-null",
            "plot-svg-weight-span", "plot-svg-vertex-span", "hodge-flag-window",
            "hodge-flag-huge-index",
        ],
    )
    def test_exits_three(self, capsys, command, payload):
        code, out, err = run_cli(capsys, command, payload)
        assert code == cli.EXIT_INPUT == 3 and out == ""
        assert "traceback" not in json.loads(err)

    def test_plot_with_no_vertex_exits_three_in_either_format(self, capsys):
        for fmt in ("svg", "json"):
            code, out, err = run_cli(capsys, "plot", {"vertices": []}, "--format", fmt)
            assert (code, out) == (cli.EXIT_INPUT, "")
            assert json.loads(err) == {"error": "a polygon needs at least one vertex"}

    def test_wide_plot_still_renders_as_json(self, capsys):
        code, out, _ = run_cli(capsys, "plot", {"weights": [0, 10**30]}, "--format", "json")
        assert code == 0 and json.loads(out)["vertices"][-1] == [2, str(10**30)]

    @pytest.mark.parametrize("rank", [1.0, 2.0, True, "2", -1])
    @pytest.mark.parametrize("row", [["1", "0"], ["1"]], ids=["two-columns", "one-column"])
    @pytest.mark.parametrize("command", ["hodge", "wa"])
    def test_flag_rank_is_checked(self, capsys, command, rank, row):
        hodge = {"flag": [{"index": 1, "basis": [row]}], "rank": rank}
        payload = {"hodge": hodge}
        if command == "wa":
            n = len(row)
            payload["module"] = {"p": 2, "phi": [[str(int(i == j)) for j in range(n)]
                                                 for i in range(n)]}
        code, out, err = run_cli(capsys, command, payload)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert "flag rank" in json.loads(err)["error"]

    def test_bool_is_not_an_integer(self, capsys):
        payload = {"summands": [{"type": "Ueff", "d": 1, "h": 1, "copies": True}]}
        assert run_cli(capsys, "bc-dim", payload)[0] == 3


BATTERY = json.loads((ROOT / "tests" / "fixtures" / "battery_proper.json").read_text())["input"]
DEGREE = BATTERY["degrees"]["r"]  # {"hk", "lattice"}


def _battery(degree):
    """The battery input with `degree` in place of its degree r."""
    return {**BATTERY, "degrees": {**BATTERY["degrees"], "r": degree}}


class TestObjectReaders:
    """Each JSON reader through `base`: a non-object, a missing key, a non-list,
    a list entry that is not an object and two alternatives at once exit 3
    with `base`'s words and nothing on stdout."""

    @pytest.mark.parametrize("command, payload, error", [
        ("hodge", {"hodge": 5}, "HodgeData JSON must be an object"),
        ("hodge", {"hodge": {"flag": [{"basis": [["1"]]}]}}, "flag entry JSON missing key 'index'"),
        ("hodge", {"hodge": {"flag": [{"index": 1}]}}, "flag entry JSON missing key 'basis'"),
        ("hodge", {"hodge": {"flag": 5}}, "'flag' must be a JSON list"),
        ("hodge", {"hodge": {"flag": [5]}}, "flag entry JSON must be an object"),
        ("hodge", {"hodge": {"weights": [1, 0], "flag": "garbage"}},
         "HodgeData JSON gives both 'weights' and 'flag'"),
        ("cohdim", [], "sheaf JSON must be an object"),
        ("cohdim", {"bundle": [{"copies": 1}]}, "bundle entry JSON missing key 'slope'"),
        ("cohdim", {"bundle": 5}, "'bundle' must be a JSON list"),
        ("cohdim", {"torsion": {}}, "'torsion' must be a JSON list"),
        ("cohdim", {"bundle": [5]}, "bundle entry JSON must be an object"),
        ("cohdim", {"torsion": [5]}, "torsion entry JSON must be an object"),
        ("cohdim", {"torsion": [{"point": "x"}]}, "torsion entry JSON missing key 'lengths'"),
        ("cohdim", {"bundle": [{"slope": "1", "copies": "a"}]},
         "bundle copies must be integers, got 'a'"),
        ("plot", [], "input JSON must be an object"),
        ("plot", {"coefficients": [1, 1]}, "input JSON missing key 'p'"),
        ("plot", {"weights": 5}, "'weights' must be a JSON list"),
        ("plot", {"weights": [0], "vertices": [[0, "0"]]},
         "input JSON gives both 'weights' and 'vertices'"),
        ("battery", _battery(5), "degree entry JSON must be an object"),
        ("battery", _battery({"hk": DEGREE["hk"]}),
         "degree entry JSON missing key 'lattice'"),
        ("battery", _battery({**DEGREE, "module": DEGREE["hk"]}),
         "degree entry JSON gives both 'hk' and 'module'"),
        ("battery", _battery({**DEGREE, "hodge": DEGREE["lattice"]}),
         "degree entry JSON gives both 'lattice' and 'hodge'"),
        ("bc-dim", {"torsion_core": 5, "quotient": {"summands": []}},
         "'torsion_core' must be a JSON list"),
        ("bc-dim", {"summands": [5]}, "summand JSON must be an object"),
        ("bc-dim", {"summands": [{"type": "Ueff", "h": 1}]}, "summand JSON missing key 'd'"),
        ("bc-dim", {"summands": [{"type": "Tors"}]}, "summand JSON missing key 'lengths'"),
        ("bc-dim", {"summands": [{"type": "Ueff", "d": None, "h": 1}]},
         "Ueff parameters must be integers, got None"),
        ("bc-dim", {"summands": [{"type": "Uquot", "d": 1, "h": 1, "copies": "2"}]},
         "piece copies must be integers, got '2'"),
        ("fn4-reduce", {"module": {"p": 2, "phi": []}, "hodge": {"weights": []}},
         "fn4_reduce requires flag-form Hodge data, got weights only"),
        ("bc-dim", {"summands": [{"type": "Qp", "n": 3}], "quotient": {"summands": []}},
         "BC JSON gives both 'quotient' and 'summands'"),
        ("bc-dim", 5, "BC JSON must be an object"),
        ("mv-check", {**MV, "row_a": {**MV["row_a"], "objects": [
            {**MV_OBJECTS[0], "quotient": {"summands": []}}, *MV_OBJECTS[1:]]}},
         "BC JSON gives both 'quotient' and 'summands'"),
        ("mv-check", {**MV, "row_a": {**MV["row_a"], "objects": [5, *MV_OBJECTS[1:]]}},
         "row A object JSON must be an object"),
        ("hodge", {"hodge": {"weights": [0, 1], "rank": 5}},
         "HodgeData rank 5 != number of weights 2"),
        ("hodge", {"hodge": {"weights": [0, 1], "rank": "2"}},
         "Hodge ranks must be integers, got '2'"),
        ("ext", {"x": {"kind": "B"}, "y": {"kind": "C"}}, "label JSON missing key 'k'"),
        ("ext", {"x": {"kind": "Qp"}, "y": {"kind": "Qp"}, "k_degree": 0},
         "base field degrees must be >= 1, got 0"),
    ])
    def test_exits_three_in_the_readers_words(self, capsys, command, payload, error):
        code, out, err = run_cli(capsys, command, payload)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert json.loads(err) == {"error": error}

    @pytest.mark.parametrize("command, sparse, explicit", [
        ("bc-dim", {"quotient": {"summands": [{"type": "Qp", "n": 3}]}},
         {"torsion_core": [], "quotient": {"summands": [{"type": "Qp", "n": 3}]}}),
        ("bc-dim",
         {"summands": [{"type": "Tors", "lengths": [2]}, {"type": "Ueff", "d": 1, "h": 1}]},
         {"summands": [{"type": "Tors", "point": "infty", "lengths": [2]},
                       {"type": "Ueff", "d": 1, "h": 1, "copies": 1}]}),
        ("cohdim", {"bundle": [{"slope": "-1/2"}], "torsion": [{"lengths": [1]}]},
         {"bundle": [{"slope": "-1/2", "copies": 1}],
          "torsion": [{"point": "infty", "lengths": [1]}]}),
        ("cohdim", {}, {"bundle": [], "torsion": []}),
        ("hodge", {"hodge": {"weights": [1, 0]}}, {"hodge": {"weights": [1, 0], "rank": 2}}),
        ("ext", {"x": {"kind": "C"}, "y": {"kind": "Qp"}},
         {"x": {"kind": "C", "twist": 0}, "y": {"kind": "Qp", "n": 1}, "k_degree": 1}),
    ], ids=["torsion-core", "summand-point-and-copies", "sheaf-point-and-copies", "sheaf-lists",
            "weights-rank", "label-twist-n-and-k-degree"])
    def test_an_optional_key_takes_its_default(self, capsys, command, sparse, explicit):
        got = run_cli(capsys, command, sparse)
        assert got[0] == 0 and got == run_cli(capsys, command, explicit)


class TestOracleRescoring:
    def test_the_oracle_reads_the_lattice_without_its_walk(self, capsys, monkeypatch):
        # phi = 1 at p = 2, Fil^1 = span(1, 1): the degree is 1, so `wa`
        # answers before it reads the lattice, and the oracle, which checks
        # every element's stability, sets up no scorer that nothing walks
        payload = {"module": {"p": 2, "phi": [["1", "0"], ["0", "1"]]},
                   "hodge": {"flag": [{"index": 1, "basis": [["1", "1"]]}], "rank": 2}}
        made, scorers = [], []
        enumerate_subobjects, lattice_scorer = hn.enumerate_subobjects, hn.lattice_scorer
        monkeypatch.setattr(hn, "enumerate_subobjects",
                            lambda m: made.append(m) or enumerate_subobjects(m))
        monkeypatch.setattr(hn, "lattice_scorer",
                            lambda m, lattice: scorers.append(m) or lattice_scorer(m, lattice))
        code, _, _ = run_cli(capsys, "wa", payload, "--oracle")
        assert code == 1 and (len(made), len(scorers)) == (1, 0)
    @pytest.mark.parametrize("command, fixture", [("wa", "wa_true"), ("acyclic", "acyclic_false")])
    def test_the_oracle_checks_the_lattice_of_the_verdict(self, capsys, monkeypatch, command,
                                                         fixture):
        # one enumeration per call: the oracle reads the lattice the module keeps
        spec = json.loads((ROOT / "tests" / "fixtures" / f"{fixture}.json").read_text())
        made, real = [], hn.enumerate_subobjects
        monkeypatch.setattr(hn, "enumerate_subobjects", lambda m: made.append(m) or real(m))
        plain = run_cli(capsys, command, spec["input"])
        assert len(made) == 1
        made.clear()
        assert run_cli(capsys, command, spec["input"], "--oracle") == plain
        assert len(made) == 1

    def test_underreporting_scorer_exits_four(self, capsys, monkeypatch):
        # span(e1) has degree 1 > 0; a scorer one short of it makes the
        # module look weakly admissible, which the oracle must refuse
        payload = {
            "module": WA_TRUE["module"],
            "hodge": {"flag": [{"index": 1, "basis": [["1", "0"]]}], "rank": 2},
        }
        assert run_cli(capsys, "wa", payload)[0] == 1
        honest = hn.lattice_scorer

        def underreporting(m, lattice):
            walk = honest(m, lattice)

            def lower(cap=None):
                for key, (k, th, tn, d) in walk(cap):
                    yield key, ((k, th, tn, d - 1) if 0 < k < m.rank else (k, th, tn, d))

            return lower

        monkeypatch.setattr(hn, "lattice_scorer", underreporting)
        code, out, _ = run_cli(capsys, "wa", payload)
        assert (code, json.loads(out)["status"]) == (0, "certified-true")
        code, out, err = run_cli(capsys, "wa", payload, "--oracle")
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == (
            "internal: oracle: a subobject violates a certified-true verdict"
        )

    def test_misreported_whole_space_exits_four(self, capsys, monkeypatch):
        # V, the last HN step, is re-checked from t_H(M) and t_N(M) alone; a
        # scorer that overstates only the full mask must be caught there
        payload = {
            "module": WA_TRUE["module"],
            "hodge": {"flag": [{"index": 1, "basis": [["1", "0"]]}], "rank": 2},
        }
        m = hn.FilteredPhiModule.from_obj(payload)
        honest = hn.lattice_scorer

        def overstating(m, lattice):
            walk = honest(m, lattice)

            def higher(cap=None):
                for key, (k, th, tn, d) in walk(cap):
                    yield key, ((k, th + 1, tn, d + 1) if k == m.rank else (k, th, tn, d))

            return higher

        assert run_cli(capsys, "hn", payload)[0] == 0
        monkeypatch.setattr(hn, "lattice_scorer", overstating)
        with pytest.raises(AssertionError, match=r"internal: lattice scorer gave \(2, "):
            hn.hn_filtration(m)
        code, out, err = run_cli(capsys, "hn", payload)
        assert code == cli.EXIT_INTERNAL == 4 and out == ""
        assert json.loads(err)["error"].startswith("internal: lattice scorer gave (2, ")


def _python(*args, stdin=b"", timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, env=env, timeout=timeout
    )


class TestOracleChecksTheFilteredCommands:
    """`hn`, `vst` and `fn4-reduce` under `--oracle`: a doctored answer, the
    source of a function of `hn` and `real`, the function it replaces, exits 4,
    also under `python -O`."""

    CASES = [
        ("hn", "hn_filtration", "hn_destabilized",
         "lambda m: hn.HNFiltration(real(m).steps[-1:], True)",
         "an HN step does not score its degree"),
        ("hn", "hn_filtration", "hn_destabilized",
         "lambda m: hn.HNFiltration((hn.HNStep(real(m).steps[-1].basis, 0, 2, 2, 0),), True)",
         "HN slopes disagree with the lattice's polygon"),
        ("vst", "vst_dimension", "hn_destabilized",
         "lambda m: hn.VstResult(hn.Dimension(0, 0), True, True)",
         "H^0 disagrees with the lattice's polygon"),
        ("vst", "vst_dimension", "hn_destabilized",
         "lambda m: hn.VstResult(hn.Dimension(1, 1), False, True)", "H^1 disagrees"),
        ("fn4-reduce", "fn4_reduce", "fn4_scalar", "lambda m: m",
         "fn4 output is not certified weakly admissible"),
        ("fn4-reduce", "fn4_reduce", "fn4_scalar",
         "lambda m: hn.FilteredPhiModule(hn.PhiModule.from_matrices(3, [[1, 0], [0, 1]]), "
         "real(m).hodge)", "fn4 changes the module"),
    ]
    IDS = ["hn-only-v", "hn-one-step", "vst-h0", "vst-h1", "fn4-input", "fn4-other-module"]

    @staticmethod
    def payload(fixture):
        return json.loads((ROOT / "tests" / "fixtures" / f"{fixture}.json").read_text())["input"]

    @pytest.mark.parametrize("command, name, fixture, doctor, message", CASES, ids=IDS)
    def test_doctored_answer_exits_four(self, capsys, monkeypatch, command, name, fixture,
                                        doctor, message):
        payload = self.payload(fixture)
        plain = run_cli(capsys, command, payload, "--oracle")
        assert plain[0] in (0, 1, 2) and plain[2] == ""
        monkeypatch.setattr(hn, name, eval(doctor, {"hn": hn, "real": getattr(hn, name)}))
        assert run_cli(capsys, command, payload)[0] in (0, 1, 2)
        code, out, err = run_cli(capsys, command, payload, "--oracle")
        assert (code, out) == (cli.EXIT_INTERNAL, "")
        assert json.loads(err)["error"] == f"internal: oracle: {message}"

    @pytest.mark.parametrize("command, name, fixture, doctor, message", CASES, ids=IDS)
    def test_doctored_answer_exits_four_under_O(self, command, name, fixture, doctor, message):
        script = (
            "import io, json, sys\n"
            "from slopecalc import cli, hn\n"
            f"real = hn.{name}\n"
            f"hn.{name} = {doctor}\n"
            f"sys.stdin = io.StringIO(json.dumps({self.payload(fixture)!r}))\n"
            f"sys.exit(cli.run([{command!r}, '--oracle']))\n"
        )
        proc = _python("-O", "-c", script)
        assert proc.returncode == 4 and proc.stdout == b""
        assert json.loads(proc.stderr)["error"] == f"internal: oracle: {message}"


class TestFn4NoHang:
    def test_rank_eleven_family_within_thirty_seconds(self):
        # degree 55 with an 11-dimensional top jump: each step's hyperplane
        # must come without a walk over the 5^11 small-integer functionals
        stdin = json.dumps(one_level_family(11).to_obj()).encode()
        proc = _python("-m", "slopecalc", "fn4-reduce", "--input", "-", stdin=stdin, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"]["status"] == "certified-true"


class TestOracleUnderOptimize:
    def test_same_bytes_with_and_without_O(self):
        spec = json.loads((ROOT / "tests" / "fixtures" / "wa_false.json").read_text())
        stdin = json.dumps(spec["input"]).encode()
        argv = ("-m", "slopecalc", spec["command"], "--oracle", "--input", "-")
        plain = _python(*argv, stdin=stdin)
        optimized = _python("-O", *argv, stdin=stdin)
        assert plain.returncode == 1
        assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)

    def test_failed_oracle_exits_four_under_O(self):
        script = (
            "import io, json, sys\n"
            "from slopecalc import cli, hn\n"
            "hn.is_weakly_admissible = lambda m: hn.Verdict(hn.STATUS_FALSE, ((1, 0),))\n"
            f"sys.stdin = io.StringIO(json.dumps({WA_TRUE!r}))\n"
            "sys.exit(cli.run(['wa', '--oracle']))\n"
        )
        proc = _python("-O", "-c", script)
        assert proc.returncode == 4 and proc.stdout == b""
        assert json.loads(proc.stderr)["error"].startswith("internal: oracle:")

    def test_hn_vertex_check_exits_four_under_O(self):
        # the check must raise explicitly, not by an assert statement
        m, _ = _unnested_vertex(True)
        script = (
            "import io, json, sys\n"
            "from slopecalc import cli, hn\n"
            "from slopecalc.rational import RatMatrix\n"
            "ident = tuple(tuple(row) for row in RatMatrix.identity(4).entries)\n"
            "bases = ((), ident[:1], ident[1:3], ident)\n"
            "lattice = hn.SubobjectLattice.sample(bases)\n"
            "lattice.strategy = 'blocks'  # a deciding lattice: any strategy but the sample\n"
            "hn.enumerate_subobjects = lambda m: lattice\n"
            f"sys.stdin = io.StringIO(json.dumps({m.to_obj()!r}))\n"
            "sys.exit(cli.run(['hn']))\n"
        )
        proc = _python("-O", "-c", script)
        assert proc.returncode == 4 and proc.stdout == b""
        error = json.loads(proc.stderr)["error"]
        assert error.startswith("internal: the HN vertex at rank 2 misses")

    def test_unstable_sample_part_exits_four_under_O(self):
        # a sampled element is a lattice part, checked by an explicit raise
        m, _ = _unstable_sample()
        script = (
            "import io, json, sys\n"
            "from fractions import Fraction\n"
            "from slopecalc import cli, hn\n"
            "from slopecalc.rational import RatMatrix\n"
            "ident = tuple(tuple(row) for row in RatMatrix.identity(3).entries)\n"
            "line = ((Fraction(1), Fraction(0), Fraction(1)),)\n"
            "bases = ((), ident[:1], line, ident)\n"
            "hn.enumerate_subobjects = lambda m: hn.SubobjectLattice.sample(bases)\n"
            f"sys.stdin = io.StringIO(json.dumps({m.to_obj()!r}))\n"
            "sys.exit(cli.run(['hn']))\n"
        )
        proc = _python("-O", "-c", script)
        assert proc.returncode == 4 and proc.stdout == b""
        error = json.loads(proc.stderr)["error"]
        assert error == "internal: a lattice part is not Frobenius-stable"

    @pytest.mark.parametrize("command", ["hn", "wa", "acyclic"])
    def test_returned_subspace_that_n_moves_exits_four_under_O(self, command):
        # the re-check raises explicitly, not by an assert statement
        m, _ = _n_moved_line()
        script = (
            "import io, json, sys\n"
            "from slopecalc import cli, hn\n"
            "lattice = hn._n_closed_sums([[(1, 0)], [(0, 1)]], [0, 0], 'eigenlines')\n"
            "hn.enumerate_subobjects = lambda m: lattice\n"
            f"sys.stdin = io.StringIO(json.dumps({m.to_obj()!r}))\n"
            f"sys.exit(cli.run([{command!r}]))\n"
        )
        proc = _python("-O", "-c", script)
        assert proc.returncode == 4 and proc.stdout == b""
        assert json.loads(proc.stderr)["error"] == N_MOVED



def _first_fixture(command):
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.json")):
        spec = json.loads(path.read_text(encoding="utf-8"))
        if spec["command"] == command:
            return spec
    raise LookupError(command)


def _modules_after(script, stdin=b""):
    """Every module a fresh interpreter holds after running `script`."""
    script += "\nimport json, sys\nsys.stderr.write(json.dumps(list(sys.modules)))\n"
    proc = _python("-c", script, stdin=stdin)
    assert proc.returncode in (0, 1, 2), proc.stderr
    return set(json.loads(proc.stderr.decode().splitlines()[-1]))


def _loaded_after(script, stdin=b""):
    """The slopecalc modules a fresh interpreter holds after running `script`."""
    return {m for m in _modules_after(script, stdin) if m.split(".")[0] == "slopecalc"}


def _command_script(command):
    spec = _first_fixture(command)
    script = f"from slopecalc import cli\ncli.run([{command!r}, '--input', '-'])"
    return script, json.dumps(spec["input"]).encode()


def _loaded_by_command(command):
    return _loaded_after(*_command_script(command))


@pytest.fixture(scope="module")
def bare_modules():
    """The modules `python -c pass` already holds, which differ by host (`site`)."""
    return _modules_after("pass")


class TestImportSet:
    """A CLI call loads only the modules its command uses (each is compiled
    per call where no bytecode cache is written)."""

    def test_cli_import_loads_only_base(self):
        assert _loaded_after("import slopecalc.cli") == {
            "slopecalc", "slopecalc.cli", "slopecalc.base"
        }

    def test_plot_import_loads_no_cli(self):
        assert "slopecalc.cli" not in _loaded_after("import slopecalc.plot")

    @pytest.mark.parametrize("command", ["newton", "plot"])
    def test_polygon_commands_skip_the_deciders(self, command):
        loaded = _loaded_by_command(command)
        assert "slopecalc.cli" in loaded
        for name in ("hn", "bc", "diagram", "sheaf"):
            assert f"slopecalc.{name}" not in loaded

    @pytest.mark.parametrize("command", sorted(cli.HANDLERS))
    def test_only_plot_loads_the_svg_writer(self, command):
        assert ("slopecalc.plot" in _loaded_by_command(command)) == (command == "plot")

    @pytest.mark.parametrize("command", ["hn", "wa", "acyclic", "fn4-reduce", "vst"])
    def test_hn_family_skips_bc_and_diagram(self, command):
        loaded = _loaded_by_command(command)
        assert "slopecalc.hn" in loaded
        assert not loaded & {"slopecalc.bc", "slopecalc.diagram"}

    @pytest.mark.parametrize("command", ["battery", "dichotomy"])
    def test_battery_and_dichotomy_skip_bc(self, command):
        loaded = _loaded_by_command(command)
        assert "slopecalc.diagram" in loaded and "slopecalc.bc" not in loaded

    def test_mv_check_loads_only_bc_and_diagram(self):
        assert _loaded_by_command("mv-check") == {
            "slopecalc", "slopecalc.cli", "slopecalc.base", "slopecalc.bc", "slopecalc.diagram"
        }

    @pytest.mark.parametrize(
        "command", ["newton", "plot", "cohdim", "bc-dim", "canfil", "ext", "mv-check"]
    )
    def test_commands_without_matrices_skip_rational(self, command):
        assert "slopecalc.rational" not in _loaded_by_command(command)

    @pytest.mark.parametrize("command", sorted(cli.HANDLERS))
    def test_no_command_loads_dataclasses_or_inspect(self, command, bare_modules):
        # importing dataclasses loads inspect, ast, dis and tokenize
        heavy = {"dataclasses", "inspect"} - bare_modules
        assert not _modules_after(*_command_script(command)) & heavy

    @pytest.mark.parametrize("command", sorted(cli.HANDLERS))
    def test_no_command_loads_argparse_or_gettext(self, command, bare_modules):
        # the command line is parsed by hand; argparse loads gettext and locale
        heavy = {"argparse", "gettext"} - bare_modules
        assert not _modules_after(*_command_script(command)) & heavy

    @pytest.mark.parametrize("command", sorted(cli.HANDLERS))
    def test_oracle_module_loads_only_under_oracle(self, command):
        assert "slopecalc.oracle" not in _loaded_by_command(command)
        script, stdin = _command_script(command)
        checked = script.replace("'--input', '-'", "'--input', '-', '--oracle'")
        assert "slopecalc.oracle" in _loaded_after(checked, stdin)
