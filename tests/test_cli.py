"""Command-line behaviour: envelopes, goldens, exit codes, the SVG figure."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import polytangent
from polytangent import cli, tangency
from polytangent.decomposition import MAX_STEPS
from polytangent.dual import ELEMENTARY_TAGS
from polytangent.parser import MAX_DEGREE, MAX_DEPTH, MAX_EXPONENT
from polytangent.polynomial import Polynomial, RationalFunction, X
from polytangent.rules import RuleReport
from polytangent.tangency import CertificateError, tangent_at

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


GOLDEN_CASES = [
    ("tangent.json", ("--json", "tangent", "x^2", "3")),
    ("derive.json", ("--json", "derive", "x^3")),
    ("check.json", ("--json", "check", "x^2", "5", "-6", "3")),
    ("decompose.json", ("--json", "decompose", "x^2", "3")),
    ("table.json", ("--json", "table", "x^2", "3", "--steps", "3")),
    ("mult.json", ("--json", "mult", "x^2", "6", "-9", "3")),
    ("expand.json", ("--json", "expand", "x^3 - x", "2")),
    ("rules.json", ("--json", "rules", "x^2 + 1", "0")),
    ("dual.json", ("--json", "dual", "x^3", "2", "1")),
    ("dual-exp.json", ("--json", "dual", "exp", "1", "2")),
    ("tangent.txt", ("tangent", "x^3 - 2*x", "1/2")),
    ("derive.txt", ("derive", "(x^2+1)/(x-1)")),
    ("derive-ratfun.json", ("--json", "derive", "(x^2 - 1)/(x - 1)^2 + 1/x")),
    ("derive-ratfun.txt", ("derive", "(x^2 - 1)/(x - 1)^2 + 1/x")),
    ("check.txt", ("check", "x^3", "1", "0", "1")),
    ("check-tangent.txt", ("check", "x^2", "6", "-9", "3")),
    ("mult.txt", ("mult", "x^2", "6", "-9", "3")),
    ("decompose.txt", ("decompose", "x^3", "1")),
    ("expand.txt", ("expand", "x^3 - x", "2")),
    ("table.txt", ("table", "x^3", "1", "--steps", "4")),
    ("rules.txt", ("rules", "x^2 + 1", "0")),
    ("dual.txt", ("dual", "x^3", "2", "1")),
    ("dual-exp.txt", ("dual", "exp", "1", "2")),
]


# The SVG each plot writes.
PLOT_GOLDEN_CASES = [
    ("plot-square.svg", ("plot", "x^2", "3", "--range", "0,6", "--dx", "2")),
    ("plot-axes.svg", ("plot", "--range=-2,3/2", "--", "x^3 - 2x", "-1/3")),
    (
        "plot-degree8.svg",
        (
            "plot", "--range=-7/4,5/2", "--dx", "3/4", "--size", "640x480", "--",
            "x^8/40 - 3x^7/20 + 2x^5/7 - x^3 + 5x/3 - 1/2", "1/2",
        ),
    ),
]

# A plot's envelope echoes its --out path, so these run in a fresh cwd with
# the relative path fig.svg, and the figure must equal its SVG golden.
PLOT_ENVELOPE_CASES = [
    (f"{svg.removesuffix('.svg')}.{fmt}", svg, argv)
    for svg, argv in PLOT_GOLDEN_CASES
    if svg != "plot-square.svg"
    for fmt in ("txt", "json")
]


class TestGoldens:
    @pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_byte_identical(self, capsys, name, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "name,argv", PLOT_GOLDEN_CASES, ids=[c[0] for c in PLOT_GOLDEN_CASES]
    )
    def test_svg_byte_identical(self, capsys, tmp_path, name, argv):
        out_svg = tmp_path / name
        code, _ = run_cli(capsys, argv[0], f"--out={out_svg}", *argv[1:])
        assert code == 0
        assert out_svg.read_bytes() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize(
        "name,svg,argv", PLOT_ENVELOPE_CASES, ids=[c[0] for c in PLOT_ENVELOPE_CASES]
    )
    def test_plot_envelope_byte_identical(self, capsys, tmp_path, monkeypatch, name, svg, argv):
        monkeypatch.chdir(tmp_path)
        flags = ("--json",) if name.endswith(".json") else ()
        code, out = run_cli(capsys, *flags, argv[0], "--out=fig.svg", *argv[1:])
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")
        assert (tmp_path / "fig.svg").read_bytes() == (GOLDEN / svg).read_bytes()

    @pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_deterministic(self, capsys, name, argv):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


class TestEnvelope:
    def test_shape(self, capsys):
        _, out = run_cli(capsys, "--json", "derive", "x^2")
        env = json.loads(out)
        assert list(env) == ["command", "inputs", "result", "status", "error"]
        assert env["status"] == "ok"
        assert env["error"] is None

    def test_inputs_echoed_canonically(self, capsys):
        _, out = run_cli(capsys, "--json", "tangent", "x*x", "0.5")
        env = json.loads(out)
        assert env["inputs"] == {"expr": "x^2", "p": "1/2"}

    def test_error_envelope(self, capsys):
        code, out = run_cli(capsys, "--json", "derive", "x^(-1)")
        env = json.loads(out)
        assert code == 2
        assert env["status"] == "error"
        assert env["result"] is None
        assert "offset 2" in env["error"]


class TestCommands:
    def test_tangent_constant(self, capsys):
        _, out = run_cli(capsys, "--json", "tangent", "7", "0")
        r = json.loads(out)["result"]
        assert (r["slope"], r["intercept"], r["cofactor"]) == ("0", "7", "0")

    def test_tangent_cube(self, capsys):
        _, out = run_cli(capsys, "--json", "tangent", "x^3", "2")
        r = json.loads(out)["result"]
        assert (r["slope"], r["intercept"], r["cofactor"]) == ("12", "-16", "x + 4")

    def test_derive_constant(self, capsys):
        _, out = run_cli(capsys, "--json", "derive", "5")
        assert json.loads(out)["result"]["derivative"] == "0"

    def test_derive_rational_function(self, capsys):
        _, out = run_cli(capsys, "--json", "derive", "1/x")
        r = json.loads(out)["result"]
        assert r == {"kind": "rational_function", "derivative": "-1/x^2"}

    @pytest.mark.parametrize(
        "expr,kind,derivative",
        [
            # x in a divisor makes a rational function, whatever the value reduces to
            ("1/(1/x)", "rational_function", "1"),
            ("x/x", "rational_function", "0"),
            ("1/(2/x)", "rational_function", "1/2"),
            ("1/(1/(1/x))", "rational_function", "-1/x^2"),
            ("x/(x - x + 2)", "polynomial", "1/2"),
            ("1/x^0", "polynomial", "0"),
        ],
    )
    def test_derive_kind_follows_the_divisors(self, capsys, expr, kind, derivative):
        _, out = run_cli(capsys, "--json", "derive", expr)
        assert json.loads(out)["result"] == {"kind": kind, "derivative": derivative}

    def test_check_tangent_line(self, capsys):
        _, out = run_cli(capsys, "--json", "check", "x^2", "6", "-9", "3")
        r = json.loads(out)["result"]
        assert r["multiplicity"] == 2
        assert r["tangent"] is True

    def test_check_coincident_line(self, capsys):
        _, out = run_cli(capsys, "--json", "check", "x+1", "1", "1", "5")
        r = json.loads(out)["result"]
        assert r["multiplicity"] == "INFINITE"
        assert r["tangent"] is True

    def test_mult(self, capsys):
        _, out = run_cli(capsys, "--json", "mult", "x^2", "6", "-9", "3")
        assert json.loads(out)["result"]["multiplicity"] == 2

    def test_decompose_linear(self, capsys):
        _, out = run_cli(capsys, "--json", "decompose", "2*x+1", "10")
        r = json.loads(out)["result"]
        assert (r["value"], r["slope"], r["remainder"]) == ("21", "2", "0")
        assert r["valuation"] == "INFINITE"

    def test_decompose_quartic(self, capsys):
        _, out = run_cli(capsys, "--json", "decompose", "x^4", "0")
        r = json.loads(out)["result"]
        assert r["remainder"] == "t^4"
        assert r["valuation"] == 4

    def test_expand(self, capsys):
        _, out = run_cli(capsys, "--json", "expand", "x^2", "3")
        r = json.loads(out)["result"]
        assert r["coefficients"] == ["9", "6", "1"]
        assert r["polynomial"] == "t^2 + 6*t + 9"

    def test_table_of_line(self, capsys):
        _, out = run_cli(capsys, "--json", "table", "x+1", "0", "--steps", "2")
        rows = json.loads(out)["result"]["rows"]
        assert [r["gap"] for r in rows] == ["0", "0"]

    def test_table_of_cube(self, capsys):
        _, out = run_cli(capsys, "--json", "table", "x^3", "1", "--steps", "1")
        row = json.loads(out)["result"]["rows"][0]
        assert (row["quotient"], row["gap"]) == ("331/100", "31/100")

    def test_rules_all_hold(self, capsys):
        _, out = run_cli(capsys, "--json", "rules", "x^2", "x^3")
        reports = json.loads(out)["result"]["reports"]
        assert [r["rule"] for r in reports] == ["sum", "product", "quotient", "chain"]
        assert all(r["holds"] for r in reports)

    def test_rules_zero_denominator(self, capsys):
        code, out = run_cli(capsys, "--json", "rules", "x", "0")
        assert code == 0
        reports = {r["rule"]: r for r in json.loads(out)["result"]["reports"]}
        assert reports["quotient"]["holds"] is None
        assert "error" in reports["quotient"]
        for rule in ("sum", "product", "chain"):
            assert reports[rule]["holds"] is True

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_rules_renders_each_holding_report_once(self, capsys, monkeypatch, mode):
        """A rule that holds has equal canonical sides, so its rhs is its lhs's text."""
        sides, calls = [], []
        for name, verify in list(cli.VERIFIERS.items()):
            def recorded(*args, verify=verify):
                report = verify(*args)
                sides.extend((report.lhs, report.rhs))
                return report

            monkeypatch.setitem(cli.VERIFIERS, name, recorded)
        for cls in (Polynomial, RationalFunction):
            def counted(self, to_str=cls.__str__):
                calls.append(self)
                return to_str(self)

            monkeypatch.setattr(cls, "__str__", counted)
        code, out = run_cli(capsys, *mode, "rules", "x^2 + 1", "x - 2")
        assert code == 0 and "FAILS" not in out
        assert len(sides) == 2 * len(cli.VERIFIERS)
        assert sum(any(c is side for side in sides) for c in calls) == len(cli.VERIFIERS)

    def test_rules_failing_report_prints_both_sides(self, capsys, monkeypatch):
        def unequal(f, g, df, dg):
            return RuleReport("sum", X, X + 1)

        monkeypatch.setitem(cli.VERIFIERS, "sum", unequal)
        _, out = run_cli(capsys, "rules", "x^2", "x")
        assert "     sum: FAILS  x == x + 1\n" in out
        _, out = run_cli(capsys, "--json", "rules", "x^2", "x")
        report = json.loads(out)["result"]["reports"][0]
        assert report == {"rule": "sum", "lhs": "x", "rhs": "x + 1", "holds": False}

    def test_rules_trivial(self, capsys):
        _, out = run_cli(capsys, "--json", "rules", "1", "1")
        assert all(r["holds"] for r in json.loads(out)["result"]["reports"])

    def test_dual_elementary(self, capsys):
        _, out = run_cli(capsys, "--json", "dual", "sin", "0", "1")
        r = json.loads(out)["result"]
        assert (r["real"], r["eps"]) == (0.0, 1.0)

    @pytest.mark.parametrize("tag", ELEMENTARY_TAGS)
    def test_dual_serves_every_elementary_tag(self, capsys, tag):
        code, out = run_cli(capsys, "--json", "dual", tag, "1/2", "1")
        r = json.loads(out)["result"]
        assert code == 0
        assert (r["kind"], type(r["eps"])) == ("elementary", float)

    def test_dual_polynomial(self, capsys):
        _, out = run_cli(capsys, "--json", "dual", "x^3", "2", "1")
        r = json.loads(out)["result"]
        assert (r["real"], r["eps"]) == ("8", "12")

    def test_dual_domain_error(self, capsys):
        code, out = run_cli(capsys, "--json", "dual", "log", "-1", "1")
        assert code == 2
        assert json.loads(out)["status"] == "error"


class TestTextMode:
    def test_tangent_text(self, capsys):
        code, out = run_cli(capsys, "tangent", "x^2", "3")
        assert code == 0
        assert "y = 6*x - 9" in out
        assert "x^2 - 6*x + 9 = (x - 3)^2 * (1)" in out

    def test_error_text(self, capsys):
        code, out = run_cli(capsys, "derive", "1/")
        assert code == 2
        assert out.startswith("error:")


class TestOutputFile:
    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = cli.main(["--json", "--output", str(target), "derive", "x^3"])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["result"]["derivative"] == "3*x^2"

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path, where):
        target = tmp_path / "no" / "such" / "o.json" if where == "missing-dir" else tmp_path
        code, out = run_cli(capsys, "--json", "--output", str(target), "derive", "x^3")
        assert code == 2
        env = json.loads(out)
        assert list(env) == ["command", "inputs", "result", "status", "error"]
        assert (env["command"], env["inputs"], env["result"]) == ("derive", {"expr": "x^3"}, None)
        assert env["status"] == "error" and str(target) in env["error"]
        code, out = run_cli(capsys, "--output", str(target), "derive", "x^3")
        assert code == 2 and out.startswith("error: ")

    def test_unwritable_output_writes_no_figure(self, capsys, tmp_path):
        target, svg = tmp_path / "no" / "o.txt", tmp_path / "f.svg"
        argv = ("plot", "x", "0", "--range=0,1", f"--out={svg}")
        code, out = run_cli(capsys, "--json", "--output", str(target), *argv)
        env = json.loads(out)
        assert (code, env["status"], env["result"]) == (2, "error", None)
        assert str(target) in env["error"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("before", [None, "kept\n"], ids=["absent", "present"])
    @pytest.mark.parametrize("output,out", [("f.svg", "f.svg"), ("./f.svg", "f.svg"),
                                            ("f.svg", "sub/../f.svg")])
    def test_output_naming_the_plot_file_is_refused(
        self, capsys, tmp_path, monkeypatch, before, output, out
    ):
        """--output and --out on one file would leave the envelope where the SVG was."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        target = tmp_path / "f.svg"
        if before is not None:
            target.write_text(before)
        argv = ("plot", "x", "0", "--range=0,1", f"--out={out}")
        code, text = run_cli(capsys, "--output", output, *argv)
        assert code == 2 and text == f"error: --output and --out name the same file: {output}\n"
        code, text = run_cli(capsys, "--json", "--output", output, *argv)
        env = json.loads(text)
        assert (code, env["status"], env["result"]) == (2, "error", None)
        assert (target.read_text() if target.exists() else None) == before


class TestExitCodes:
    def test_input_error(self, capsys):
        assert run_cli(capsys, "tangent", "x^", "3")[0] == 2

    def test_lowering_error(self, capsys):
        assert run_cli(capsys, "tangent", "1/x", "3")[0] == 2

    def test_division_by_zero_reported_before_x_in_a_denominator(self, capsys):
        assert run_cli(capsys, "tangent", "1/x + 1/0", "3") == (2, "error: division by zero\n")
        assert run_cli(capsys, "tangent", "1/x", "3") == (
            2,
            "error: x in a denominator: not a polynomial\n",
        )

    def test_bad_rational(self, capsys):
        assert run_cli(capsys, "tangent", "x^2", "3//4")[0] == 2

    def test_zero_denominator_in_a_scalar(self, capsys, tmp_path):
        assert run_cli(capsys, "tangent", "x", "1/0") == (2, "error: division by zero in '1/0'\n")
        svg = tmp_path / "x.svg"
        argv = ("plot", "x", "0", "--range", "0,1/0", "--out", str(svg))
        code, out = run_cli(capsys, "--json", *argv)
        assert (code, json.loads(out)["error"]) == (2, "division by zero in '1/0'")
        assert not svg.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("dual", "exp", "1000", "1"),
            ("plot", "x", "0", "--range", "0,1e400", "--out", "{tmp}/x.svg"),
        ],
        ids=["dual-exp", "plot-range"],
    )
    def test_float_overflow_is_an_input_error(self, capsys, tmp_path, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, out = run_cli(capsys, "--json", *argv)
        env = json.loads(out)
        assert code == 2
        assert list(env) == ["command", "inputs", "result", "status", "error"]
        assert (env["status"], env["result"]) == ("error", None)
        assert env["error"]
        assert not any(tmp_path.iterdir())

    def test_steps_over_the_bound(self, capsys):
        code, out = run_cli(capsys, "--json", "table", "x", "0", "--steps", "100000000")
        assert code == 2
        assert str(MAX_STEPS) in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("tangent", "x^2", "1e9999999"),
            ("check", "x^2", "0", "0", "--", "-1E-1025"),
            ("dual", "x", "1e1_025", "1"),
            ("plot", "x", "0", "--range", "0,1e9999999", "--out", "{tmp}/x.svg"),
        ],
        ids=["tangent", "check", "dual", "plot-range"],
    )
    def test_scalar_exponent_over_the_bound(self, capsys, tmp_path, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, out = run_cli(capsys, "--json", *argv)
        assert code == 2
        assert str(MAX_EXPONENT) in json.loads(out)["error"]
        assert not any(tmp_path.iterdir())

    def test_scalar_exponent_at_the_bound(self, capsys):
        code, out = run_cli(capsys, "--json", "tangent", "x^2", "--", "-1e1024")
        assert code == 0
        assert json.loads(out)["result"]["slope"] == "-2" + "0" * 1024

    def test_rules_composition_over_the_bound(self, capsys, monkeypatch):
        # deg f * deg g = 1028: refused before any rule runs
        monkeypatch.setattr(cli, "VERIFIERS", {})
        code, out = run_cli(capsys, "--json", "rules", "x^4 - x", "x^257 + 1")
        assert code == 2
        assert f"limit of {MAX_DEGREE}" in json.loads(out)["error"]

    def test_rules_composition_at_the_bound(self, capsys):
        code, out = run_cli(capsys, "--json", "rules", "x^4 - x", "x^256 + 1")
        assert code == 0
        assert all(r["holds"] for r in json.loads(out)["result"]["reports"])

    def test_certificate_failure_is_exit_3(self, capsys, monkeypatch):
        def explode(*_args, **_kwargs):
            raise CertificateError("forced for the test")

        monkeypatch.setattr(cli, "tangent_at", explode)
        code, out = run_cli(capsys, "--json", "tangent", "x^2", "3")
        assert code == 3
        assert json.loads(out)["status"] == "error"

    def test_recheck_catches_a_wrong_quotient(self, capsys, monkeypatch):
        divide = tangency._divide

        def corrupted(cs, p):  # adds 1 to each quotient's constant term
            q, r = divide(cs, p)
            return [q[0] + 1, *q[1:]], r

        monkeypatch.setattr(tangency, "_divide", corrupted)
        with pytest.raises(CertificateError):
            tangent_at(X**3, 2)
        code, out = run_cli(capsys, "--json", "tangent", "x^3", "2")
        assert code == 3
        assert json.loads(out)["status"] == "error"


def run_each(capsys, argvs):
    """(exit code, stdout, stderr) of each argv, in order, in this process."""
    outputs = []
    for argv in argvs:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refused the argv
            code = exc.code
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    return outputs


class TestLeadingMinus:
    """An operand that starts with "-" and then a digit, ".", x or "(" needs no "--"."""

    def test_expression_prints_an_envelope(self, capsys):
        assert run_cli(capsys, "derive", "-x^2") == (0, "d/dx -x^2 = -2*x\n")
        code, out = run_cli(capsys, "--json", "derive", "-(x+1)")
        env = json.loads(out)
        assert (code, env["status"], env["inputs"], env["result"]["derivative"]) == (
            0, "ok", {"expr": "-x - 1"}, "-1"
        )

    @pytest.mark.parametrize(
        "argv,options",
        [
            (("check", "x^2", "5", "-6", "3"), 0),
            (("check", "x^2", "5", "-1/2", "3"), 0),
            (("tangent", "-x^2 + 1", "-3/2"), 0),
            (("tangent", "-(x-1)(x+2)", "-.5"), 0),
            (("rules", "-x^3", "-(x+1)^2"), 0),
            (("dual", "-x^3", "-0.5", "1"), 0),
            (("derive", "-1/(x+1)"), 0),
            (("table", "-2x^2", "-1", "--steps", "2"), 2),
            (("plot", "-x^3", "-1/2", "--range=-1,1", "--out={tmp}/a.svg"), 2),
        ],
    )
    def test_same_envelope_as_after_double_dash(self, capsys, tmp_path, argv, options):
        # the last `options` arguments are options; "--" goes before the operands
        plain = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        cut = len(plain) - options
        dashed = [plain[0], *plain[cut:], "--", *plain[1:cut]]
        (code, out, err), dashed_outcome = run_each(
            capsys, [["--json", *plain], ["--json", *dashed]]
        )
        assert (code, err) == (0, "")
        assert (code, out, err) == dashed_outcome

    def test_other_dash_arguments_are_still_options(self, capsys):
        ((code, out, err),) = run_each(capsys, [["--json", "derive", "-y"]])
        assert (code, out) == (2, "")
        assert err.startswith("usage:")


class TestSharedParser:
    # Each pair would differ if a call left state behind in the shared parser.
    SEQUENCE = [
        ("table", "x^2", "1", "--steps", "2"),
        ("table", "x^2", "1"),
        ("--json", "derive", "x^3"),
        ("derive", "x^3"),
        ("table", "x^2", "1", "--steps", "z"),
        ("table", "x^2", "1"),
    ]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reuse_matches_a_fresh_parser(self, capsys, monkeypatch):
        shared = run_each(capsys, self.SEQUENCE)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = run_each(capsys, self.SEQUENCE)
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0]
        assert shared[1][1].count("\n") == 2 + 6  # two header lines, the default 6 rows
        assert "invalid int value" in shared[4][2]


@contextmanager
def int_digits_unlimited():
    """Lift the int-to-str digit limit, where this Python has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestLargeResults:
    def test_result_past_the_digit_limit(self, capsys):
        code, out = run_cli(capsys, "--json", "dual", "x^600", "987654321", "1")
        assert code == 0
        real = json.loads(out)["result"]["real"]
        with int_digits_unlimited():
            assert real == str(Fraction(987654321) ** 600)
        assert len(real) > 4300

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_derive_renders_each_polynomial_once(self, capsys, monkeypatch, mode):
        """f and f' are each converted to text once, since a huge one takes seconds."""
        calls = []
        render = Polynomial.render

        def counted(self, var="x"):
            calls.append(self)
            return render(self, var)

        monkeypatch.setattr(Polynomial, "render", counted)
        code, out = run_cli(capsys, *mode, "derive", "x^3+1")
        assert code == 0 and "3*x^2" in out
        assert len(calls) == 2

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_expand_converts_each_coefficient_once(self, capsys, monkeypatch, mode):
        """7^50 is converted once for the echoed input and once for the shifted coefficient."""
        big, calls = Fraction(7**50), []
        to_str = Fraction.__str__

        def counted(self):
            if self == big:
                calls.append(self)
            return to_str(self)

        monkeypatch.setattr(Fraction, "__str__", counted)
        code, out = run_cli(capsys, *mode, "expand", "7^50*x", "0")
        assert code == 0 and f"{7**50}*t" in out
        assert len(calls) == 2

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no digit limit"
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("dual", "x^600", "987654321", "1"),
            ("tangent", "x^", "3"),
            ("table", "x", "0", "--steps", "z"),
        ],
        ids=["ok", "input-error", "argparse-refusal"],
    )
    def test_digit_limit_is_restored(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            run_each(capsys, [argv])
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)


def data_elements(svg_path: Path) -> dict:
    root = ET.parse(svg_path).getroot()
    return {el.get("id"): el for el in root.iter() if el.get("id")}


class TestPlot:
    def test_figure_geometry(self, capsys, tmp_path):
        out_svg = tmp_path / "fig.svg"
        code, out = run_cli(
            capsys,
            "--json",
            "plot",
            "x^2",
            "3",
            "--range",
            "0,6",
            "--dx",
            "2",
            "--out",
            str(out_svg),
        )
        assert code == 0
        env = json.loads(out)
        assert env["result"]["delta_y"] == "16"
        assert env["result"]["differential"] == "12"

        els = data_elements(out_svg)
        tangent = els["tangent"]
        assert float(tangent.get("x1")) == 0.0
        assert float(tangent.get("y1")) == -9.0
        assert float(tangent.get("x2")) == 6.0
        assert float(tangent.get("y2")) == 27.0
        curve = els["curve"]
        assert curve.get("d").count("L") + 1 >= 256

    def test_plot_without_dx_has_no_secant(self, capsys, tmp_path):
        out_svg = tmp_path / "plain.svg"
        code, _ = run_cli(
            capsys, "plot", "x^2", "3", "--range", "0,6", "--out", str(out_svg)
        )
        assert code == 0
        els = data_elements(out_svg)
        assert "secant" not in els
        assert "tangent" in els

    def test_plot_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(capsys, "plot", "x^2", "3", "--range", "0,6", "--dx", "2", "--out", str(a))
        run_cli(capsys, "plot", "x^2", "3", "--range", "0,6", "--dx", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_range_is_an_input_error(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "plot", "x^2", "3", "--range", "1,1", "--out", str(tmp_path / "x.svg")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "expr, p, span",
        [
            ("x^2/10^300", "0", "-1e-5,1e-5"),  # the y span is subnormal: an infinite y scale
            ("10^300*x", "0", "-1e8,1e8"),  # the y span overflows
            ("x^2", "0", "-1e-320,1e-320"),  # the x span is subnormal: an infinite x scale
            ("x^2", "0", "1e-400,2e-400"),  # both ends round to 0.0: no x span
            ("x", "1e300", "0,1e-300"),  # the marked point lies at an infinite pixel position
        ],
    )
    def test_range_without_finite_geometry_is_an_input_error(
        self, capsys, tmp_path, expr, p, span
    ):
        out_svg = tmp_path / "x.svg"
        code, out = run_cli(
            capsys, "--json", "plot", expr, p, f"--range={span}", "--out", str(out_svg)
        )
        lo, hi = (Fraction(end) for end in span.split(","))
        assert code == 2
        assert json.loads(out)["error"].startswith(f"plot range {lo},{hi} has no finite")
        assert not out_svg.exists()

    @pytest.mark.parametrize("expr", ["10^20", "-10^17"])
    def test_flat_figure_beyond_float_integers_is_drawn(self, capsys, tmp_path, expr):
        """|y| > 2^53 absorbs a pad of 1.0, so the y range opens by 5% of |y| instead."""
        out_svg = tmp_path / "flat.svg"
        code, _ = run_cli(capsys, "plot", expr, "0", "--range=0,1", "--out", str(out_svg))
        assert code == 0
        root = ET.parse(out_svg).getroot()
        transform = data_elements(out_svg)["data"].get("transform")
        translate, scale = (part.split("(")[1].split() for part in transform.split(")")[:2])
        assert all(math.isfinite(float(v)) for v in translate + scale)
        assert float(scale[1]) < 0
        (marker,) = [el for el in root.iter() if el.tag.endswith("circle")]
        assert 20 < float(marker.get("cy")) < 600 - 45  # inside the frame

    def test_zero_dx_is_an_input_error(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys,
            "plot", "x^2", "3", "--range", "0,6", "--dx", "0",
            "--out", str(tmp_path / "x.svg"),
        )
        assert code == 2

    def test_custom_size(self, capsys, tmp_path):
        out_svg = tmp_path / "small.svg"
        code, _ = run_cli(
            capsys,
            "plot", "x^2", "3", "--range", "0,6", "--size", "400x300",
            "--out", str(out_svg),
        )
        assert code == 0
        root = ET.parse(out_svg).getroot()
        assert root.get("width") == "400"
        assert root.get("height") == "300"

    @pytest.mark.parametrize("size", ["0x0", "-5x-5", "80x600", "800x65"])
    def test_size_without_plot_area_is_an_input_error(self, capsys, tmp_path, size):
        out_svg = tmp_path / "x.svg"
        code, out = run_cli(
            capsys,
            "--json", "plot", "x^2", "3", "--range", "0,6", f"--size={size}",
            "--out", str(out_svg),
        )
        assert code == 2
        assert "81x66" in json.loads(out)["error"]
        assert not out_svg.exists()

    def test_minimum_size(self, capsys, tmp_path):
        out_svg = tmp_path / "tiny.svg"
        code, _ = run_cli(
            capsys, "plot", "x^2", "3", "--range", "0,6", "--size", "81x66", "--out", str(out_svg)
        )
        assert code == 0
        assert ET.parse(out_svg).getroot().get("width") == "81"


def _child_env():
    # A relative PYTHONPATH does not survive cwd=tmp_path, so lead with an absolute one.
    paths = [str(Path(polytangent.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "polytangent", "--json", "derive", "x^3"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["derivative"] == "3*x^2"

    @pytest.mark.parametrize("expr", ["(" * 10_000 + "x" + ")" * 10_000, "x+" + "-" * 10_000 + "x"])
    def test_deep_nesting_is_an_input_error(self, tmp_path, expr):
        proc = subprocess.run(
            [sys.executable, "-m", "polytangent", "--json", "derive", "--", expr],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=_child_env(),
        )
        assert proc.returncode == 2, proc.stderr
        env = json.loads(proc.stdout)
        assert env["status"] == "error"
        assert env["error"].startswith(f"nesting exceeds the limit of {MAX_DEPTH} ")

    def test_import_loads_no_heavy_stdlib_modules(self):
        # Every CLI invocation pays for what the package imports, and dataclasses
        # alone pulls in inspect, ast, dis and tokenize.  -S keeps a site hook
        # from loading any of these before the package does.
        src = str(Path(polytangent.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import polytangent.cli; "
                "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
