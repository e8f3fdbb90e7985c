"""A Hypothesis fuzz over argv: the CLI contract holds for any input.

Every argv built from the command table, with well-formed or junk
values, must exit 0 or 2 (argparse refusals included) within a
wall-time budget, and ``--json`` must print an envelope with its five
keys.  Expressions mix sums, quotients (zero divisors included), small
powers, and parentheses or unary signs nested into the hundreds, past
the nesting bound; their degree bounds stay at most 8 and
junk text short, so that no expression can ask for a large exact
result.  Scalars include ``1e±n`` with n up to 10**7, which the CLI must
refuse beyond its exponent bound.  The budget catches a case that hangs.
All cases share one process, and with it one argument parser.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from polytangent import cli

BUDGET_S = 2.0
ENVELOPE_KEYS = ["command", "inputs", "result", "status", "error"]

small = st.fractions(min_value=-9, max_value=9, max_denominator=9)
junk = st.text(alphabet="x0123456789+-*/^()., e", max_size=8)
rational = st.one_of(
    small.map(str),
    small.map(lambda q: f"{float(q):.3g}"),
    st.integers(-(10**7), 10**7).map(lambda n: f"1e{n}"),
)


@st.composite
def polynomial(draw, degree):
    terms = draw(st.lists(st.tuples(small, st.integers(0, degree)), max_size=4))
    return " + ".join(f"({c})*x^{k}" for c, k in terms) or "0"


@st.composite
def expression(draw, degree=8):
    """A sum of terms, or a quotient, a small power of a sum or a deeply nested one.

    A divisor is a sum, which may have x in it, or a zero such as x - x.
    Each form splits ``degree`` among its parts, so the parser's static
    numerator and denominator degree bounds both stay at most ``degree``.
    """
    form = draw(st.sampled_from(["sum", "quotient", "power", "nested"])) if degree > 1 else "sum"
    if form == "sum":
        return draw(polynomial(degree))
    if form == "nested":  # parentheses or unary signs, at depths into the hundreds
        n, inner = draw(st.integers(1, 300)), draw(expression(degree))
        return draw(st.sampled_from([f"{'(' * n}{inner}{')' * n}", f"{'-' * n}({inner})"]))
    if form == "power":
        k = draw(st.integers(0, 3))
        return f"({draw(polynomial(degree // max(k, 1)))})^{k}"
    half = degree // 2
    divisor = draw(st.one_of(polynomial(half), st.sampled_from(["x - x", "0", "2x - x - x"])))
    return f"({draw(expression(half))})/({divisor})"


VALUES = {
    "expr": expression(),
    "f": expression(),
    "g": expression(),
    "fn": st.one_of(st.sampled_from(["exp", "log", "sin", "cos", "tan"]), expression()),
}


@st.composite
def argv(draw, out_dir):
    """Half the cases well-formed; the other half mix in junk anywhere."""
    maybe_junk = (lambda s: s) if draw(st.booleans()) else (lambda s: st.one_of(s, junk))
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    args = [name]
    if name == "table" and draw(st.booleans()):
        args.append(f"--steps={draw(maybe_junk(st.integers(-2, 12).map(str)))}")
    if name == "plot":
        lo, hi = sorted(draw(st.lists(small, min_size=2, max_size=2, unique=True)))
        span = draw(maybe_junk(st.just(f"{lo},{hi}")))
        args += [f"--range={span}", f"--out={out_dir}/fuzz.svg"]
        if draw(st.booleans()):
            args.append(f"--dx={draw(maybe_junk(rational))}")
        if draw(st.booleans()):
            args.append(f"--size={draw(st.sampled_from(['81x66', '200x150', '80x66', '0x0']))}")
    args.append("--")
    args += [draw(maybe_junk(VALUES.get(p, rational))) for p in cli.COMMANDS[name].positionals]
    if draw(st.booleans()):
        args.insert(0, "--json")
    return args


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150)
@given(data=st.data())
def test_any_argv_keeps_the_contract(out_dir, data):
    args = data.draw(argv(out_dir))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    refused = False
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse refused the argv
            code, refused = exc.code, True
    assert time.perf_counter() - start < BUDGET_S
    assert code in (0, 2)
    if refused:
        assert err.getvalue().startswith("usage:")
    elif "--json" in args:
        env = json.loads(out.getvalue())
        assert list(env) == ENVELOPE_KEYS
        assert env["status"] == ("ok" if code == 0 else "error")
        assert (env["error"] is None) == (code == 0)
