"""Acceptance suite: one test per criterion, each printing a PASS line.

Randomized criteria run fixed-seed corpora at the stated sizes so runs
are reproducible; every tolerance is pinned here.  Run with ``-s`` to
see the per-criterion lines.
"""

import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from polytangent import cli
from polytangent.decomposition import decompose, quotient_table, remainder_valuation
from polytangent.dual import Dual, eval_elementary, eval_poly
from polytangent.parser import ParseError, lower_poly, parse
from polytangent.polynomial import X, Polynomial
from polytangent.rules import verify_chain, verify_product, verify_quotient, verify_sum
from polytangent.tangency import INFINITE, derivative, is_tangent, tangent_at
from support import certificate_holds, rand_nonzero_polynomial, rand_polynomial, rand_rational

GOLDEN = Path(__file__).parent / "golden"


def ok(line: str) -> None:
    print(f"PASS: {line}")


def test_c01_named_derivatives_are_byte_exact():
    cases = [
        ("5", "0"),
        ("7", "0"),
        ("7/2*x - 1", "7/2"),
        ("x^2", "2*x"),
        ("x^3", "3*x^2"),
    ]
    for expr, expected in cases:
        assert str(derivative(lower_poly(parse(expr)))) == expected
    ok("criterion 1: constant, linear, square, and cube derivatives render exactly")


def test_c02_power_rule_oracle_up_to_64():
    for n in range(65):
        expected = Polynomial([0] * (n - 1) + [n]) if n >= 1 else Polynomial()
        assert derivative(X**n) == expected
    ok("criterion 2: derivative of x^n is n*x^(n-1) for n = 0..64, coefficient-exact")


def test_c03_tangency_certificates_reconstruct():
    rng = random.Random(1003)
    for _ in range(1000):
        f = rand_polynomial(rng, max_degree=10)
        p = rand_rational(rng)
        t = tangent_at(f, p)
        rebuilt = (X - p) ** 2 * t.cofactor + Polynomial([t.intercept, t.slope])
        assert rebuilt == f
        assert certificate_holds(f, t.slope, t.intercept, p, t.cofactor)
    ok("criterion 3: 1000 random certificates reconstruct f exactly, zero failures")


def test_c04_tangent_uniqueness():
    rng = random.Random(1004)
    for _ in range(200):
        f = rand_polynomial(rng, max_degree=10, allow_zero=False)
        while f.degree < 2:
            f = rand_polynomial(rng, max_degree=10, allow_zero=False)
        p = rand_rational(rng)
        t = tangent_at(f, p)
        assert certificate_holds(f, t.slope, t.intercept, p, t.cofactor)
        k = t.slope
        for wrong in (k + 1, k - 1, k + Fraction(1, 2), k - Fraction(1, 2)):
            line = Polynomial((f(p) - wrong * p, wrong))
            assert not is_tangent(f, line, p)
    ok("criterion 4: 200 random points, all perturbed slopes fail the tangency test")


def test_c05_cross_construction_agreement():
    rng = random.Random(1005)
    for _ in range(500):
        f = rand_polynomial(rng, max_degree=10)
        p = rand_rational(rng)
        via_dual = eval_poly(f, Dual(p, Fraction(1))).eps
        t = tangent_at(f, p)
        assert certificate_holds(f, t.slope, t.intercept, p, t.cofactor)
        via_tangent = t.slope
        via_derivative = derivative(f)(p)
        assert via_dual == via_tangent == via_derivative
    ok("criterion 5: dual, tangent, and derivative-polynomial slopes agree on 500 samples")


def test_c06_rule_identities():
    rng = random.Random(1006)
    for _ in range(500):
        f = rand_polynomial(rng, max_degree=8)
        g = rand_polynomial(rng, max_degree=8)
        df, dg = derivative(f), derivative(g)
        assert verify_sum(f, g, df, dg).holds
        assert verify_product(f, g, df, dg).holds
        assert verify_chain(f, g, df, dg).holds
        if not g:
            g = rand_nonzero_polynomial(rng)
            dg = derivative(g)
        assert verify_quotient(f, g, df, dg).holds
    ok("criterion 6: sum, product, quotient, chain hold exactly on 500 random pairs")


def test_c07_decomposition_reconstruction_and_valuation():
    rng = random.Random(1007)
    for _ in range(500):
        f = rand_polynomial(rng, max_degree=10)
        x0 = rand_rational(rng)
        d = decompose(f, x0)
        rebuilt = (Polynomial([d.value, d.slope]) + d.remainder)(X - x0)
        assert rebuilt == f
        v = remainder_valuation(d)
        assert v == INFINITE or v >= 2
    ok("criterion 7: 500 random decompositions reconstruct exactly with valuation >= 2")


def test_c08_quotient_convergence_is_exact():
    rows = quotient_table(X**2, 3, 6)
    for k, row in enumerate(rows, start=1):
        assert row.gap == Fraction(1, 10**k)
        assert row.quotient == 6 + Fraction(1, 10**k)
    ok("criterion 8: table gaps for x^2 at 3 are exactly 1/10^k for k = 1..6")


def test_c09_elementary_duals():
    h = 1e-6
    reference = {
        "exp": (math.exp, [-2.0 + 0.25 * i for i in range(16)]),
        "log": (math.log, [0.25 + 0.25 * i for i in range(16)]),
        "sin": (math.sin, [-2.0 + 0.25 * i for i in range(16)]),
        "cos": (math.cos, [-2.0 + 0.25 * i for i in range(16)]),
        "tan": (math.tan, [-1.4 + (2.8 / 15) * i for i in range(16)]),
    }
    for tag, (ref, points) in reference.items():
        assert len(points) == 16
        for a in points:
            eps = eval_elementary(tag, Dual(a, 1.0)).eps
            central = (ref(a + h) - ref(a - h)) / (2 * h)
            assert abs(eps - central) <= 1e-6 * (1 + abs(eps))
    assert abs(eval_elementary("sin", Dual(0.0, 1.0)).eps - 1) <= 1e-12
    assert abs(eval_elementary("exp", Dual(0.0, 1.0)).eps - 1) <= 1e-12
    assert abs(eval_elementary("log", Dual(1.0, 1.0)).eps - 1) <= 1e-12
    ok("criterion 9: elementary duals match central differences; spot identities <= 1e-12")


def test_c10_parser_round_trip_and_errors():
    rng = random.Random(1010)
    for _ in range(1000):
        f = rand_polynomial(rng, max_degree=10)
        assert lower_poly(parse(str(f))) == f
    for bad in ("x^(-1)", "(x+1", "x$2"):
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert 0 <= err.value.position <= len(bad)
    ok("criterion 10: 1000 render/parse round trips exact; error cases carry positions")


def test_c11_cli_goldens_and_svg(capsys, tmp_path):
    cases = [
        ("tangent.json", ["--json", "tangent", "x^2", "3"]),
        ("derive.json", ["--json", "derive", "x^3"]),
        ("check.json", ["--json", "check", "x^2", "5", "-6", "3"]),
        ("decompose.json", ["--json", "decompose", "x^2", "3"]),
        ("table.json", ["--json", "table", "x^2", "3", "--steps", "3"]),
    ]
    for name, argv in cases:
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / name).read_text(encoding="utf-8"), name

    svg_path = tmp_path / "fig.svg"
    code = cli.main(
        ["plot", "x^2", "3", "--range", "0,6", "--dx", "2", "--out", str(svg_path)]
    )
    capsys.readouterr()
    assert code == 0
    elements = {
        el.get("id"): el for el in ET.parse(svg_path).getroot().iter() if el.get("id")
    }

    def endpoints(el):
        return tuple(float(el.get(a)) for a in ("x1", "y1", "x2", "y2"))

    x1, y1, x2, y2 = endpoints(elements["tangent"])
    assert (x1, x2) == (0.0, 6.0)
    assert math.isclose(y1, -9.0, abs_tol=1e-9)
    assert math.isclose(y2, 27.0, abs_tol=1e-9)
    dx1, dy1, dx2, dy2 = endpoints(elements["delta-x"])
    assert math.isclose(abs(dx2 - dx1), 2.0, abs_tol=1e-9)
    yx1, yy1, yx2, yy2 = endpoints(elements["delta-y"])
    assert math.isclose(abs(yy2 - yy1), 16.0, abs_tol=1e-9)
    lx1, ly1, lx2, ly2 = endpoints(elements["differential"])
    assert math.isclose(abs(ly2 - ly1), 12.0, abs_tol=1e-9)
    ok("criterion 11: five CLI goldens byte-identical; SVG tangent and increments exact")
