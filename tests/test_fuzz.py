"""A Hypothesis fuzz over argv: the CLI contract holds for any input.

Every argv built from the command table, with well-formed or junk
values, must exit 0 or 2 (argparse refusals included) within a
wall-time budget, and ``--json`` must print an envelope with its five
keys.  Degrees stay at most 8 and junk text short, so that no case can
ask for a large exact result; the budget catches a case that hangs.
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
rational = st.one_of(small.map(str), small.map(lambda q: f"{float(q):.3g}"))


@st.composite
def polynomial(draw):
    terms = draw(st.lists(st.tuples(small, st.integers(0, 8)), max_size=4))
    return " + ".join(f"({c})*x^{k}" for c, k in terms) or "0"


VALUES = {
    "expr": polynomial(),
    "f": polynomial(),
    "g": polynomial(),
    "fn": st.one_of(st.sampled_from(["exp", "log", "sin", "cos", "tan"]), polynomial()),
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
