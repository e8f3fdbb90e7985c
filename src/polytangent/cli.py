"""Command-line front end.

Every subcommand prints a single envelope, as readable text by default
or as one JSON object with ``--json``.  The envelope always has the
keys command, inputs, result, status, error; inputs are echoed in
canonical form so output does not depend on input formatting.

Exit codes: 0 ok, 2 input error, 3 internal invariant violation (a
tangent certificate failed to re-verify, which should never happen).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

from .decomposition import decompose, quotient_table, remainder_valuation
from .dual import ELEMENTARY_TAGS, Dual, eval_elementary, eval_poly
from .parser import (
    MAX_DEGREE, MAX_EXPONENT, LoweringError, ParseError, lower_poly, lower_ratfun, parse
)
from .plotting import render_figure
from .polynomial import Polynomial, X, render_terms
from .rational import to_decimal
from .rules import VERIFIERS
from .tangency import (
    INFINITE,
    CertificateError,
    derivative,
    intersection_multiplicity,
    ratfun_derivative,
    tangent_at,
    taylor_shift,
)

# Raised by a handler on bad input: exit 2.  OverflowError comes from
# float conversions, such as exp of a large argument or a huge plot range,
# and from a scalar's decimal exponent beyond MAX_EXPONENT.
_INPUT_ERRORS = (ParseError, LoweringError, ValueError, ZeroDivisionError, OverflowError, OSError)


def _poly(text: str) -> Polynomial:
    return lower_poly(parse(text))


def _scalar(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent beyond MAX_EXPONENT and a zero denominator.

    Fraction computes the power of ten in full: "1e9999999" takes seconds.
    An exponent of ten digits or more is refused without converting it.
    """
    _, e, exponent = text.lower().partition("e")
    digits = exponent.rstrip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 9 or int(digits) > MAX_EXPONENT):
        raise OverflowError(f"decimal exponent exceeds the limit of {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:  # its own text is "Fraction(1, 0)"
        raise ZeroDivisionError(f"division by zero in {text!r}") from None


def _finite_or_marker(value):
    return "INFINITE" if value == INFINITE else value


# -- command handlers --------------------------------------------------------
#
# Each handler returns (inputs, result, text lines) for a successful run.


def _cmd_tangent(args):
    f = _poly(args.expr)
    p = _scalar(args.p)
    t = tangent_at(f, p)
    expr, point, slope, intercept = str(f), str(p), str(t.slope), str(t.intercept)
    line = Polynomial((t.intercept, t.slope))
    cofactor, equation, difference = str(t.cofactor), f"y = {line}", str(f - line)
    factored = f"({X - p})^2 * ({cofactor})"
    result = {
        "point": point,
        "slope": slope,
        "intercept": intercept,
        "cofactor": cofactor,
        "equation": equation,
        "certificate": {"difference": difference, "factored": factored, "verified": True},
    }
    lines = [
        f"tangent to f(x) = {expr} at p = {point}",
        f"  {equation}",
        f"  slope     k = {slope}",
        f"  intercept b = {intercept}",
        f"  cofactor  Q = {cofactor}",
        f"  certificate: {difference} = {factored}",
    ]
    return {"expr": expr, "p": point}, result, lines


def _cmd_derive(args):
    lowered = parse(args.expr)
    try:
        f = lower_poly(lowered)
    except LoweringError:
        f = lower_ratfun(lowered)
        kind, d = "rational_function", ratfun_derivative(f)
    else:
        kind, d = "polynomial", derivative(f)
    expr, text = str(f), str(d)
    return {"expr": expr}, {"kind": kind, "derivative": text}, [f"d/dx {expr} = {text}"]


def _cmd_check(args):
    f = _poly(args.expr)
    k, b, p = _scalar(args.k), _scalar(args.b), _scalar(args.p)
    line = Polynomial((b, k))
    m = intersection_multiplicity(f, line, p)
    tangent = m >= 2
    multiplicity = _finite_or_marker(m)
    expr, point, equation = str(f), str(p), f"y = {line}"
    inputs = {"expr": expr, "k": str(k), "b": str(b), "p": point}
    result = {"line": equation, "multiplicity": multiplicity, "tangent": tangent}
    lines = [
        f"f(x) = {expr} against {equation} at p = {point}",
        f"  intersection multiplicity: {multiplicity}",
        f"  verdict: {'tangent' if tangent else 'not tangent'}",
    ]
    return inputs, result, lines


def _cmd_mult(args):
    inputs, result, lines = _cmd_check(args)
    del result["tangent"]
    return inputs, result, lines[:-1]


def _cmd_decompose(args):
    f = _poly(args.expr)
    x0 = _scalar(args.x0)
    d = decompose(f, x0)
    expr, point, value, slope = str(f), str(d.x0), str(d.value), str(d.slope)
    remainder = d.remainder.render("t")
    valuation = _finite_or_marker(remainder_valuation(d))
    result = {
        "x0": point,
        "value": value,
        "slope": slope,
        "remainder": remainder,
        "valuation": valuation,
    }
    lines = [
        f"f(x0 + t) for f(x) = {expr}, x0 = {point}",
        f"  value     f(x0)  = {value}",
        f"  slope     f'(x0) = {slope}",
        f"  remainder R(t)   = {remainder}",
        f"  valuation        = {valuation}",
    ]
    return {"expr": expr, "x0": point}, result, lines


def _cmd_expand(args):
    f = _poly(args.expr)
    p = _scalar(args.p)
    shifted = taylor_shift(f, p)
    coefficients = [str(c) for c in shifted.coeffs]
    polynomial = render_terms(coefficients, "t")
    result = {"center": str(p), "coefficients": coefficients, "polynomial": polynomial}
    lines = [f"f({p} + t) = {polynomial}", f"  coefficients: {', '.join(coefficients)}"]
    return {"expr": str(f), "p": str(p)}, result, lines


def _cmd_table(args):
    f = _poly(args.expr)
    x0 = _scalar(args.x0)
    table = quotient_table(f, x0, args.steps)
    slope = table[0].quotient - table[0].gap  # gap = quotient - f'(x0), exactly
    expr, point = str(f), str(x0)
    rows = [
        {
            "h": str(r.h),
            "dy": str(r.dy),
            "quotient": str(r.quotient),
            "gap": str(r.gap),
            "h_decimal": to_decimal(r.h),
            "quotient_decimal": to_decimal(r.quotient),
            "gap_decimal": to_decimal(r.gap),
        }
        for r in table
    ]
    lines = [
        f"difference quotients for f(x) = {expr} at x0 = {point} (slope {slope})",
        f"  {'h':>12}  {'dy/dx':>16}  {'gap':>16}  {'gap (decimal)':>16}",
    ]
    lines += [
        f"  {row['h']:>12}  {row['quotient']:>16}  {row['gap']:>16}  {row['gap_decimal']:>16}"
        for row in rows
    ]
    inputs = {"expr": expr, "x0": point, "steps": args.steps}
    return inputs, {"x0": point, "slope": str(slope), "rows": rows}, lines


def _cmd_rules(args):
    f = _poly(args.f)
    g = _poly(args.g)
    composed = (f.degree or 0) * (g.degree or 0)  # the chain rule builds f(g)
    if composed > MAX_DEGREE:
        raise LoweringError(f"f(g) has degree {composed}, over the limit of {MAX_DEGREE}")
    df, dg = derivative(f), derivative(g)  # shared by every right-hand side
    f_text, g_text = str(f), str(g)
    reports = []
    lines = [f"differentiation rules for f = {f_text}, g = {g_text}"]
    for name, verify in VERIFIERS.items():
        try:
            rep = verify(f, g, df, dg)
        except ZeroDivisionError as exc:
            reports.append(
                {"rule": name, "lhs": None, "rhs": None, "holds": None, "error": str(exc)}
            )
            lines.append(f"  {name:>8}: input error: {exc}")
            continue
        # Equal canonical forms render alike, so only a failing rule renders its rhs.
        holds = rep.holds
        lhs = str(rep.lhs)
        rhs = lhs if holds else str(rep.rhs)
        reports.append({"rule": name, "lhs": lhs, "rhs": rhs, "holds": holds})
        word = "holds" if holds else "FAILS"
        lines.append(f"  {name:>8}: {word}  {lhs} == {rhs}")
    return {"f": f_text, "g": g_text}, {"reports": reports}, lines


def _cmd_dual(args):
    a = _scalar(args.a)
    b = _scalar(args.b)
    if args.fn in ELEMENTARY_TAGS:
        fn = args.fn
        out = eval_elementary(fn, Dual(float(a), float(b)))
        result = {"kind": "elementary", "real": out.real, "eps": out.eps}
    else:
        f = _poly(args.fn)
        fn = str(f)
        out = eval_poly(f, Dual(a, b))
        result = {"kind": "polynomial", "real": str(out.real), "eps": str(out.eps)}
    lines = [f"{fn} at ({a} + {b}*eps)", f"  real = {out.real}", f"  eps  = {out.eps}"]
    return {"fn": fn, "a": str(a), "b": str(b)}, result, lines


def _cmd_plot(args):
    f = _poly(args.expr)
    p = _scalar(args.p)
    try:
        lo_text, hi_text = args.range.split(",")
        lo, hi = _scalar(lo_text), _scalar(hi_text)
    except ValueError:
        raise ValueError(f"--range must be lo,hi with lo < hi, got {args.range!r}")
    try:
        w_text, h_text = args.size.lower().split("x")
        width, height = int(w_text), int(h_text)
    except ValueError:
        raise ValueError(f"--size must be WxH, got {args.size!r}")
    dx = _scalar(args.dx) if args.dx is not None else None
    svg, info = render_figure(f, p, lo, hi, dx=dx, width=width, height=height)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    size, span = f"{width}x{height}", f"{lo},{hi}"
    result = {
        "out": args.out,
        "size": size,
        "range": span,
        "slope": str(info["slope"]),
        "intercept": str(info["intercept"]),
        "samples": info["samples"],
        "dx": str(dx) if dx is not None else None,
        "delta_y": str(info["delta_y"]) if dx is not None else None,
        "differential": str(info["differential"]) if dx is not None else None,
    }
    lines = [
        f"wrote {args.out} ({size}, x in [{span}], {info['samples']} samples)",
        f"  tangent: slope {info['slope']}, intercept {info['intercept']}",
    ]
    inputs = {"expr": str(f), "p": str(p), "range": span}
    if dx is not None:
        inputs["dx"] = str(dx)
        lines.append(
            f"  secant: dx = {dx}, dy = {info['delta_y']}, "
            f"differential = {info['differential']}"
        )
    return inputs, result, lines


# -- the command table ----------------------------------------------------------


# options holds (flag, add_argument keywords) pairs.
Command = namedtuple("Command", "help positionals handler options", defaults=((),))


COMMANDS = {
    "tangent": Command("tangent line at a point", ("expr", "p"), _cmd_tangent),
    "derive": Command("derivative of a polynomial or rational function", ("expr",), _cmd_derive),
    "check": Command(
        "test whether y = k*x + b is tangent at p", ("expr", "k", "b", "p"), _cmd_check
    ),
    "mult": Command("intersection multiplicity of a line at p", ("expr", "k", "b", "p"), _cmd_mult),
    "decompose": Command("value + slope*t + remainder about x0", ("expr", "x0"), _cmd_decompose),
    "expand": Command("rewrite f in powers of t = x - p", ("expr", "p"), _cmd_expand),
    "table": Command(
        "exact difference-quotient table",
        ("expr", "x0"),
        _cmd_table,
        (("--steps", dict(type=int, default=6, help="rows, h = 1/10 .. 1/10^steps")),),
    ),
    "rules": Command("verify the differentiation rules for f and g", ("f", "g"), _cmd_rules),
    "dual": Command(
        "evaluate at a + b*eps (polynomial or exp/log/sin/cos/tan)", ("fn", "a", "b"), _cmd_dual
    ),
    "plot": Command(
        "SVG figure: curve, tangent, optional secant",
        ("expr", "p"),
        _cmd_plot,
        (
            ("--range", dict(required=True, metavar="LO,HI")),
            ("--dx", dict(help="draw the secant to p + dx with increment annotations")),
            ("--size", dict(default="800x600", metavar="WxH")),
            ("--out", dict(default="plot.svg", metavar="FILE", help="SVG destination")),
        ),
    ),
}


# argparse reads an argument that starts with "-" as an option unless its
# _negative_number_matcher takes it for a number; this one takes "-x^2",
# "-(x+1)" and "-1/2" for operands too.  No option starts that way.
_OPERAND = re.compile(r"-[\d.x(]")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Sharing it is safe because ``parse_args`` leaves the parser as it was
    and fills a fresh namespace on every call.
    """
    ap = argparse.ArgumentParser(
        prog="polytangent",
        description="Tangents and derivatives of polynomials by the double-root "
        "criterion, over exact rational arithmetic.",
    )
    ap.add_argument("--json", action="store_true", help="emit one JSON object")
    ap.add_argument("--output", metavar="PATH", help="write the output to PATH instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p._negative_number_matcher = _OPERAND
        for positional in command.positionals:
            p.add_argument(positional)
        for flag, keywords in command.options:
            p.add_argument(flag, **keywords)
    return ap


def _payload(args, error, inputs=None, result=None, lines=()) -> str:
    """The envelope as text or JSON; an error envelope echoes the raw inputs."""
    if error is not None:
        skip = {"command", "json", "output"}
        inputs = {k: str(v) for k, v in vars(args).items() if k not in skip and v is not None}
        result, lines = None, [f"error: {error}"]
    env = {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "status": "ok" if error is None else "error",
        "error": error,
    }
    return json.dumps(env, indent=2) + "\n" if args.json else "\n".join(lines) + "\n"


def main(argv=None) -> int:
    # Exact results may run past Python's 4,300-digit int-to-str limit, which
    # guards parsers of untrusted text; lift it for this call only.  Python
    # 3.10.0-3.10.6 have no limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        if args.output:
            # An --output that cannot be opened, or that is plot's own --out
            # file, is found before the command runs, so that run writes no
            # figure.  "a" leaves the file as it is.
            try:
                if args.command == "plot" and (
                    os.path.realpath(args.output) == os.path.realpath(args.out)
                ):
                    raise ValueError(f"--output and --out name the same file: {args.output}")
                open(args.output, "a", encoding="utf-8").close()
            except (OSError, ValueError) as exc:
                sys.stdout.write(_payload(args, str(exc)))
                return 2
        try:
            outcome = COMMANDS[args.command].handler(args)
        except CertificateError as exc:
            code, payload = 3, _payload(args, str(exc))
        except _INPUT_ERRORS as exc:
            code, payload = 2, _payload(args, str(exc))
        else:
            code, payload = 0, _payload(args, None, *outcome)
        if args.output:
            # An --output that cannot be written is an input error like any other.
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as exc:
                code, payload = 2, _payload(args, str(exc))
            else:
                return code
        sys.stdout.write(payload)
        return code
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
