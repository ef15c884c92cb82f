import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from slopecalc import cli, hn

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

    def test_schema_error_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "newton", {"p": 2})
        assert code == 3
        assert "coefficients" in json.loads(err)["error"]

    def test_non_prime_rejected(self, capsys):
        code, _, err = run_cli(capsys, "newton", {"coefficients": ["1", "1"], "p": 6})
        assert code == 3
        assert json.loads(err)

    def test_large_prime_answers_quickly(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "newton", {"coefficients": ["1", "0", "1"], "p": 2**61 - 1})
        assert code == 0 and json.loads(out) == [["0", 2]]
        assert time.perf_counter() - start < 1

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

    def test_failed_oracle_exits_four(self, capsys, monkeypatch):
        # span(e1) has degree 0, so it cannot witness that WA_TRUE is not
        # weakly admissible; the oracle must reject the doctored verdict
        def doctored(m, seed=0):
            return hn.Verdict(hn.STATUS_FALSE, ((1, 0),))

        monkeypatch.setattr(hn, "is_weakly_admissible", doctored)
        plain = run_cli(capsys, "wa", WA_TRUE)
        assert plain[0] == 1
        code, out, err = run_cli(capsys, "wa", WA_TRUE, "--oracle")
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "internal: oracle: witness does not violate"


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
            "hodge-weights-not-a-list", "bcdim-zero-h", "mvcheck-null-object",
            "mvcheck-string-object", "mvcheck-objects-not-a-list", "mvcheck-arrows-null",
            "plot-svg-weight-span", "plot-svg-vertex-span", "hodge-flag-window",
            "hodge-flag-huge-index",
        ],
    )
    def test_exits_three(self, capsys, command, payload):
        code, out, err = run_cli(capsys, command, payload)
        assert code == cli.EXIT_INPUT == 3 and out == ""
        assert "traceback" not in json.loads(err)

    def test_wide_plot_still_renders_as_json(self, capsys):
        code, out, _ = run_cli(capsys, "plot", {"weights": [0, 10**30]}, "--format", "json")
        assert code == 0 and json.loads(out)["vertices"][-1] == [2, str(10**30)]

    def test_bool_is_not_an_integer(self, capsys):
        payload = {"summands": [{"type": "Ueff", "d": 1, "h": 1, "copies": True}]}
        assert run_cli(capsys, "bc-dim", payload)[0] == 3


class TestOracleRescoring:
    def test_underreporting_scorer_exits_four(self, capsys, monkeypatch):
        # span(e1) has degree 1 > 0; a scorer one short of it makes the
        # module look weakly admissible, which the oracle must refuse
        payload = {
            "module": WA_TRUE["module"],
            "hodge": {"flag": [{"index": 1, "basis": [["1", "0"]]}], "rank": 2},
        }
        assert run_cli(capsys, "wa", payload)[0] == 1
        honest = hn.lattice_scorer

        def underreporting(m, lattice=None):
            score = honest(m, lattice)

            def lower(basis, mask=None):
                k, th, tn, d = score(basis, mask)
                return (k, th, tn, d - 1) if 0 < k < m.rank else (k, th, tn, d)

            return lower

        monkeypatch.setattr(hn, "lattice_scorer", underreporting)
        code, out, _ = run_cli(capsys, "wa", payload)
        assert (code, json.loads(out)["status"]) == (0, "certified-true")
        code, out, err = run_cli(capsys, "wa", payload, "--oracle")
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == (
            "internal: oracle: a subobject violates a certified-true verdict"
        )


def _python(*args, stdin=b""):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, env=env, timeout=120
    )


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
            "hn.is_weakly_admissible = lambda m, seed=0: hn.Verdict(hn.STATUS_FALSE, ((1, 0),))\n"
            f"sys.stdin = io.StringIO(json.dumps({WA_TRUE!r}))\n"
            "sys.exit(cli.run(['wa', '--oracle']))\n"
        )
        proc = _python("-O", "-c", script)
        assert proc.returncode == 4 and proc.stdout == b""
        assert json.loads(proc.stderr)["error"].startswith("internal: oracle:")


def _first_fixture(command):
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.json")):
        spec = json.loads(path.read_text(encoding="utf-8"))
        if spec["command"] == command:
            return spec
    raise LookupError(command)


def _loaded_after(script, stdin=b""):
    """The slopecalc modules a fresh interpreter holds after running `script`."""
    script += (
        "\nimport json, sys\n"
        "ours = [m for m in sys.modules if m.split('.')[0] == 'slopecalc']\n"
        "sys.stderr.write(json.dumps(ours))\n"
    )
    proc = _python("-c", script, stdin=stdin)
    assert proc.returncode in (0, 1, 2), proc.stderr
    return set(json.loads(proc.stderr.decode().splitlines()[-1]))


def _loaded_by_command(command):
    spec = _first_fixture(command)
    script = f"from slopecalc import cli\ncli.run([{command!r}, '--input', '-'])"
    return _loaded_after(script, stdin=json.dumps(spec["input"]).encode())


class TestImportSet:
    """A CLI call loads only the modules its command uses (each is compiled
    per call where no bytecode cache is written)."""

    def test_cli_import_loads_only_rational(self):
        assert _loaded_after("import slopecalc.cli") == {
            "slopecalc", "slopecalc.cli", "slopecalc.rational"
        }

    @pytest.mark.parametrize("command", ["newton", "plot"])
    def test_polygon_commands_skip_the_deciders(self, command):
        loaded = _loaded_by_command(command)
        assert "slopecalc.cli" in loaded
        for name in ("hn", "bc", "diagram", "sheaf"):
            assert f"slopecalc.{name}" not in loaded

    @pytest.mark.parametrize("command", ["hn", "wa", "acyclic", "fn4-reduce", "vst"])
    def test_hn_family_skips_bc_and_diagram(self, command):
        loaded = _loaded_by_command(command)
        assert "slopecalc.hn" in loaded
        assert not loaded & {"slopecalc.bc", "slopecalc.diagram"}

    def test_mv_check_loads_only_bc_and_diagram(self):
        assert _loaded_by_command("mv-check") == {
            "slopecalc", "slopecalc.cli", "slopecalc.rational", "slopecalc.bc", "slopecalc.diagram"
        }
