"""Independent checker for polytangent CLI responses.

Shares no code with the package: polynomials here are plain lists of
``Fraction`` coefficients (``f[i]`` multiplies ``x**i``), the answers are
recomputed by the textbook methods (power rule, Horner, synthetic
division, binomial Taylor shift), and the program's text is read back by
a strict reader of the canonical ``c*x^k`` form pinned by the goldens.

A request is described by a *spec* dict made by the workload generator:
``command``, ``json`` (whether ``--json`` was passed), ``exit`` (the
expected exit code) and the mathematical inputs.  Polynomial inputs are
given as a product of factors ``[(coeffs, power), ...]`` so that the
generator never has to expand them.  :func:`check` raises
:class:`OracleError` when a response is wrong.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction


class OracleError(Exception):
    """A response that does not match the independently computed answer."""


# -- polynomial arithmetic on coefficient lists ---------------------------------


def trim(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def padd(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return trim(out)


def pscale(f, s):
    return trim([c * s for c in f])


def psub(f, g):
    return padd(f, pscale(g, -1))


def pmul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def deriv(f):
    """Power rule: d/dx c*x^i = i*c*x^(i-1)."""
    return trim([i * c for i, c in enumerate(f)][1:])


def horner(f, x):
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def compose(f, g):
    """f(g(x)) by Horner over coefficient lists."""
    acc = []
    for c in reversed(f):
        acc = padd(pmul(acc, g), [c])
    return acc


def synthetic_division(f, p):
    """Divide f by (x - p): returns (quotient, remainder)."""
    if not f:
        return [], Fraction(0)
    q = [Fraction(0)] * (len(f) - 1)
    acc = Fraction(0)
    for i in range(len(f) - 1, 0, -1):
        acc = acc * p + f[i]
        q[i - 1] = acc
    return q, acc * p + f[0]


def linear_power(a, b, n):
    """Coefficients of (a*x + b)^n by the binomial theorem."""
    return trim([math.comb(n, i) * a**i * b ** (n - i) for i in range(n + 1)])


def expand(factors):
    """Multiply out a product of (coeffs, power) factors."""
    f = [Fraction(1)]
    for coeffs, power in factors:
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) == 2:
            part = linear_power(coeffs[1], coeffs[0], power)
        else:
            part = [Fraction(1)]
            for _ in range(power):
                part = pmul(part, coeffs)
        f = pmul(f, part)
    return trim(f)


def taylor_shift(f, p):
    """Coefficients of f(p + t): sum_i f_i * C(i, k) * p^(i-k), in integers.

    With f = F/D (F integer) and p = a/b, every coefficient times
    D * b^n is the integer sum_i F_i C(i, k) a^(i-k) b^(n-i+k).
    """
    n = len(f) - 1
    if n < 0:
        return []
    den = math.lcm(*(c.denominator for c in f))
    ints = [c.numerator * (den // c.denominator) for c in f]
    a, b = p.numerator, p.denominator
    apow = [a**j for j in range(n + 1)]
    bpow = [b**j for j in range(n + 1)]
    scale = den * bpow[n]
    out = []
    for k in range(n + 1):
        s = 0
        for i in range(k, n + 1):
            if ints[i]:
                s += ints[i] * math.comb(i, k) * apow[i - k] * bpow[n - i + k]
        out.append(Fraction(s, scale))
    return out


# Coprimality is decided modulo a large prime: a common factor over Q
# survives reduction mod p, so gcd 1 mod p proves gcd 1 over Q.  Only an
# unlucky prime can report a spurious common factor, hence the second one.
_PRIMES = (2**61 - 1, 2**31 - 1)


def _mod_poly(f, prime):
    out = []
    for c in f:
        if c.denominator % prime == 0:
            return None
        out.append(c.numerator * pow(c.denominator, -1, prime) % prime)
    return out if out and out[-1] else None


def _gcd_degree_mod(f, g, prime):
    while g:
        inv = pow(g[-1], -1, prime)
        r = list(f)
        while len(r) >= len(g):
            c = r[-1] * inv % prime
            shift = len(r) - len(g)
            for j, d in enumerate(g):
                r[shift + j] = (r[shift + j] - c * d) % prime
            while r and not r[-1]:
                r.pop()
        f, g = g, r
    return len(f) - 1


def coprime(f, g) -> bool:
    for prime in _PRIMES:
        fm, gm = _mod_poly(f, prime), _mod_poly(g, prime)
        if fm is not None and gm is not None and _gcd_degree_mod(fm, gm, prime) == 0:
            return True
    return False


# -- strict readers for the program's canonical text ------------------------------

_TERM_SPLIT = re.compile(r" ([+-]) ")
_RATIONAL = re.compile(r"\d+(?:/\d+)?")


def read_poly(text: str, var: str = "x") -> list:
    """Read canonical polynomial text: descending powers, explicit signs, ``^``."""
    if text == "0":
        return []
    pieces = _TERM_SPLIT.split(text)
    signs = ["+"] + pieces[1::2]
    bodies = pieces[0::2]
    if bodies[0].startswith("-"):
        signs[0], bodies[0] = "-", bodies[0][1:]
    terms = {}
    last = None
    for sign, body in zip(signs, bodies):
        m = re.fullmatch(
            rf"(?:({_RATIONAL.pattern})\*)?{re.escape(var)}(?:\^(\d+))?|({_RATIONAL.pattern})",
            body,
        )
        if not m:
            raise OracleError(f"bad term {body!r} in {text!r}")
        coef_text, exp_text, const_text = m.groups()
        if const_text is not None:
            coef, power = Fraction(const_text), 0
            coef_text = const_text
        else:
            coef = Fraction(coef_text) if coef_text is not None else Fraction(1)
            power = 1 if exp_text is None else int(exp_text)
            if exp_text is not None and (str(power) != exp_text or power < 2):
                raise OracleError(f"bad exponent in {body!r}")
            if coef_text == "1":
                raise OracleError(f"unit coefficient written out in {body!r}")
        if coef_text is not None and (str(coef) != coef_text or not coef):
            raise OracleError(f"non-canonical coefficient in {body!r}")
        if last is not None and power >= last:
            raise OracleError(f"powers not strictly descending in {text!r}")
        last = power
        terms[power] = coef if sign == "+" else -coef
    return [terms.get(i, Fraction(0)) for i in range(max(terms) + 1)]


def _multi_term(f) -> bool:
    return sum(1 for c in f if c) > 1


def read_ratfun(text: str):
    """Read ``num``, ``num/den`` or ``(num)/(den)``; checks the canonical shape."""
    if text.endswith(")"):
        depth = 0
        for i in range(len(text) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(text[i], 0)
            if depth == 0:
                break
        if i == 0 or text[i - 1] != "/":
            raise OracleError(f"bad rational function {text!r}")
        num_text, den_text = text[: i - 1], text[i + 1 : -1]
        den = read_poly(den_text)
        if not _multi_term(den):
            raise OracleError(f"parenthesised single-term denominator in {text!r}")
    else:
        m = re.fullmatch(r"(.*)/(x(?:\^\d+)?)", text)
        if not m:
            return read_poly(text), [Fraction(1)]
        num_text, den = m.group(1), read_poly(m.group(2))
    if num_text.startswith("(") and num_text.endswith(")"):
        num = read_poly(num_text[1:-1])
        if not _multi_term(num):
            raise OracleError(f"parenthesised single-term numerator in {text!r}")
    else:
        num = read_poly(num_text)
        if _multi_term(num):
            raise OracleError(f"unparenthesised numerator in {text!r}")
    if not num:
        raise OracleError(f"zero numerator over a denominator in {text!r}")
    return num, den


def canonical_ratfun_equals(text, num, den) -> None:
    """Check that ``text`` is the canonical form of num/den (den nonzero)."""
    if not isinstance(text, str):
        raise OracleError(f"expected rational-function text, got {text!r}")
    p, q = read_ratfun(text)
    if q[-1] != 1:
        raise OracleError(f"denominator not monic in {text!r}")
    if pmul(p, den) != pmul(num, q):
        raise OracleError(f"{text!r} is not equal to the expected rational function")
    if len(q) > 1 and not coprime(p, q):
        raise OracleError(f"{text!r} is not in lowest terms")


# -- expected field values -----------------------------------------------------------
#
# A checker takes the field as the program printed it (a string in text
# mode, a JSON value in JSON mode) and raises OracleError when it is wrong.


def _eq(expected):
    def check(value):
        if value != expected or type(value) is not type(expected):
            raise OracleError(f"expected {expected!r}, got {value!r}")

    return check


def _rat(expected: Fraction):
    return _eq(str(expected))


def _poly(expected, var="x"):
    def check(value):
        if not isinstance(value, str) or read_poly(value, var) != trim(expected):
            raise OracleError(f"wrong polynomial {value!r}")

    return check


def _line(slope, intercept):
    def check(value):
        if not isinstance(value, str) or not value.startswith("y = "):
            raise OracleError(f"bad line {value!r}")
        _poly([intercept, slope])(value[4:])

    return check


def _float(expected: float):
    def check(value):
        if isinstance(value, str):
            value = float(value)
        if not isinstance(value, float) or not math.isclose(
            value, expected, rel_tol=1e-12, abs_tol=1e-300
        ):
            raise OracleError(f"expected {expected!r}, got {value!r}")

    return check


def _decimal12(exact: Fraction):
    """The 12-significant-digit, half-even rounding that decimal division gives."""
    if exact:
        n, d = abs(exact.numerator), exact.denominator
        e = len(str(n)) - len(str(d))
        if Fraction(n, d) < Fraction(10) ** e:
            e -= 1
        scale = Fraction(10) ** (11 - e)
        rounded = Fraction(round(exact * scale)) / scale
    else:
        rounded = Fraction(0)

    def check(value):
        if not isinstance(value, str) or not re.fullmatch(r"-?\d+(\.\d+)?(E[+-]\d+)?", value):
            raise OracleError(f"bad decimal {value!r}")
        if Fraction(value) != rounded:
            raise OracleError(f"decimal {value!r} is not {exact} to 12 digits")

    return check


def _multiplicity_value(m):
    return "INFINITE" if m is None else m


def _multiplicity(diff, p):
    """Largest m with (x - p)^m dividing diff; None when diff is zero."""
    if not diff:
        return None
    m = 0
    while True:
        q, r = synthetic_division(diff, p)
        if r:
            return m
        diff, m = q, m + 1


def _cofactor(f, p):
    """Tangent slope, intercept and cofactor Q with f - (k*x + b) = (x - p)^2 * Q."""
    k = horner(deriv(f), p)
    b = horner(f, p) - k * p
    q, r1 = synthetic_division(psub(f, [b, k]), p)
    q, r2 = synthetic_division(q, p)
    if r1 or r2:
        raise AssertionError("oracle: tangent remainder is not zero")
    return k, b, trim(q)


def expected_fields(spec) -> dict:
    """Map of envelope field path to checker, for a request expected to succeed."""
    cmd = spec["command"]
    fields = {"command": _eq(cmd), "status": _eq("ok"), "error": _eq(None)}
    if cmd in ("tangent", "derive", "check", "mult", "decompose", "expand", "table", "plot"):
        f = expand(spec["f"])
    if cmd == "tangent":
        p = Fraction(spec["p"])
        k, b, q = _cofactor(f, p)
        diff = psub(f, [b, k])

        def factored(value):
            m = re.fullmatch(r"\((.*)\)\^2 \* \((.*)\)", value)
            if not m:
                raise OracleError(f"bad factored certificate {value!r}")
            _poly([-p, Fraction(1)])(m.group(1))
            _poly(q)(m.group(2))

        fields.update({
            "inputs.expr": _poly(f), "inputs.p": _rat(p),
            "result.point": _rat(p), "result.slope": _rat(k), "result.intercept": _rat(b),
            "result.cofactor": _poly(q), "result.equation": _line(k, b),
            "result.certificate.difference": _poly(diff),
            "result.certificate.factored": factored,
            "result.certificate.verified": _eq(True),
        })
    elif cmd == "derive" and "den" in spec:
        num, den = expand(spec["f"]), expand(spec["den"])
        dnum = psub(pmul(deriv(num), den), pmul(num, deriv(den)))

        fields.update({
            "inputs.expr": lambda value: canonical_ratfun_equals(value, num, den),
            "result.kind": _eq("rational_function"),
            "result.derivative": lambda value: canonical_ratfun_equals(value, dnum,
                                                                        pmul(den, den)),
        })
    elif cmd == "derive":
        fields.update({
            "inputs.expr": _poly(f), "result.kind": _eq("polynomial"),
            "result.derivative": _poly(deriv(f)),
        })
    elif cmd in ("check", "mult"):
        k, b, p = (Fraction(spec[key]) for key in ("k", "b", "p"))
        m = _multiplicity(psub(f, [b, k]), p)
        fields.update({
            "inputs.expr": _poly(f), "inputs.k": _rat(k), "inputs.b": _rat(b),
            "inputs.p": _rat(p), "result.line": _line(k, b),
            "result.multiplicity": _eq(_multiplicity_value(m)),
        })
        if cmd == "check":
            fields["result.tangent"] = _eq(m is None or m >= 2)
    elif cmd in ("decompose", "expand"):
        p = Fraction(spec["p"])
        shifted = taylor_shift(f, p)
        if cmd == "decompose":
            rem = [Fraction(0), Fraction(0)] + shifted[2:]
            valuation = next((i for i, c in enumerate(rem) if c), None)
            fields.update({
                "inputs.expr": _poly(f), "inputs.x0": _rat(p), "result.x0": _rat(p),
                "result.value": _rat(horner(f, p)),
                "result.slope": _rat(horner(deriv(f), p)),
                "result.remainder": _poly(rem, "t"),
                "result.valuation": _eq(_multiplicity_value(valuation)),
            })
        else:
            fields.update({
                "inputs.expr": _poly(f), "inputs.p": _rat(p), "result.center": _rat(p),
                "result.coefficients": _eq([str(c) for c in shifted]),
                "result.polynomial": _poly(shifted, "t"),
            })
    elif cmd == "table":
        x0 = Fraction(spec["x0"])
        slope = horner(deriv(f), x0)
        fields.update({
            "inputs.expr": _poly(f), "inputs.x0": _rat(x0), "inputs.steps": _eq(spec["steps"]),
            "result.x0": _rat(x0), "result.slope": _rat(slope),
        })
        for i in range(spec["steps"]):
            h = Fraction(1, 10 ** (i + 1))
            dy = horner(f, x0 + h) - horner(f, x0)
            quotient = dy / h
            gap = quotient - slope
            row = f"result.rows.{i}."
            fields.update({
                row + "h": _rat(h), row + "dy": _rat(dy), row + "quotient": _rat(quotient),
                row + "gap": _rat(gap), row + "h_decimal": _decimal12(h),
                row + "quotient_decimal": _decimal12(quotient),
                row + "gap_decimal": _decimal12(gap),
            })
    elif cmd == "rules":
        f, g = expand(spec["f"]), expand(spec["g"])
        df, dg = deriv(f), deriv(g)
        sides = {
            "sum": (deriv(padd(f, g)), [Fraction(1)]),
            "product": (deriv(pmul(f, g)), [Fraction(1)]),
            "quotient": (psub(pmul(df, g), pmul(f, dg)), pmul(g, g)),
            "chain": (pmul(compose(df, g), dg), [Fraction(1)]),
        }
        fields.update({"inputs.f": _poly(f), "inputs.g": _poly(g)})
        for i, (rule, (num, den)) in enumerate(sides.items()):

            def side(value, num=num, den=den):
                canonical_ratfun_equals(value, num, den)

            row = f"result.reports.{i}."
            fields.update({
                row + "rule": _eq(rule), row + "lhs": side, row + "rhs": side,
                row + "holds": _eq(True),
            })
    elif cmd == "dual" and "fn" in spec:
        a, b = Fraction(spec["a"]), Fraction(spec["b"])
        real, eps = _elementary(spec["fn"], float(a), float(b))
        fields.update({
            "inputs.fn": _eq(spec["fn"]), "inputs.a": _rat(a), "inputs.b": _rat(b),
            "result.kind": _eq("elementary"), "result.real": _float(real),
            "result.eps": _float(eps),
        })
    elif cmd == "dual":
        f = expand(spec["f"])
        a, b = Fraction(spec["a"]), Fraction(spec["b"])
        fields.update({
            "inputs.fn": _poly(f), "inputs.a": _rat(a), "inputs.b": _rat(b),
            "result.kind": _eq("polynomial"), "result.real": _rat(horner(f, a)),
            "result.eps": _rat(horner(deriv(f), a) * b),
        })
    elif cmd == "plot":
        p, lo, hi = (Fraction(spec[key]) for key in ("p", "lo", "hi"))
        k = horner(deriv(f), p)
        dx = Fraction(spec["dx"]) if spec.get("dx") is not None else None
        fields.update({
            "inputs.expr": _poly(f), "inputs.p": _rat(p), "inputs.range": _eq(f"{lo},{hi}"),
            "result.out": _eq(spec["out"]), "result.size": _eq(spec.get("size", "800x600")),
            "result.range": _eq(f"{lo},{hi}"), "result.slope": _rat(k),
            "result.intercept": _rat(horner(f, p) - k * p), "result.samples": _eq(257),
            "result.dx": _eq(None if dx is None else str(dx)),
            "result.delta_y": _eq(None if dx is None else str(horner(f, p + dx) - horner(f, p))),
            "result.differential": _eq(None if dx is None else str(k * dx)),
        })
        if dx is not None:
            fields["inputs.dx"] = _rat(dx)
    else:
        raise ValueError(f"no oracle for command {cmd!r}")
    return fields


def _elementary(fn, a, b):
    if fn == "exp":
        value = math.exp(a)
        return value, value * b
    if fn == "log":
        return math.log(a), b / a
    if fn == "sin":
        return math.sin(a), math.cos(a) * b
    if fn == "cos":
        return math.cos(a), -math.sin(a) * b
    if fn == "tan":
        c = math.cos(a)
        return math.tan(a), b / (c * c)
    raise ValueError(f"unknown elementary function {fn!r}")


# -- reading the response ----------------------------------------------------------


def _flatten(value, prefix, out):
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}{key}.", out)
    elif isinstance(value, list) and prefix in ("result.rows.", "result.reports."):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}{i}.", out)
    else:
        out[prefix[:-1]] = value
    return out


def _json_fields(stdout: str) -> dict:
    try:
        env = json.loads(stdout)
    except ValueError as exc:
        raise OracleError(f"output is not JSON: {exc}") from None
    if json.dumps(env, indent=2) + "\n" != stdout:
        raise OracleError("JSON output is not in canonical indent-2 form")
    if not isinstance(env, dict) or list(env) != ["command", "inputs", "result", "status", "error"]:
        raise OracleError("envelope keys are wrong")
    return _flatten(env, "", {})


def _text_fields(cmd: str, stdout: str) -> dict:
    """Pull the envelope fields out of the text rendering of one command."""
    if not stdout.endswith("\n"):
        raise OracleError("text output does not end in a newline")
    lines = stdout[:-1].split("\n")
    patterns = _TEXT_PATTERNS[cmd]
    fields = {}
    if cmd == "table":
        head = lines[:2]
        rows = lines[2:]
        _match_lines(head, patterns, fields)
        for i, line in enumerate(rows):
            parts = line.split()
            if len(parts) != 4:
                raise OracleError(f"bad table row {line!r}")
            h, q, gap, gap_dec = parts
            if line != f"  {h:>12}  {q:>16}  {gap:>16}  {gap_dec:>16}":
                raise OracleError(f"misaligned table row {line!r}")
            row = f"result.rows.{i}."
            fields.update({row + "h": h, row + "quotient": q, row + "gap": gap,
                           row + "gap_decimal": gap_dec})
        fields["_rows"] = len(rows)
        return fields
    if cmd == "rules":
        _match_lines(lines[:1], patterns, fields)
        rows = lines[1:]
        for i, line in enumerate(rows):
            m = re.fullmatch(r" *(\w+): (holds|FAILS)  (.*) == (.*)", line)
            if not m or line != f"  {m.group(1):>8}: {m.group(2)}  {m.group(3)} == {m.group(4)}":
                raise OracleError(f"bad rules row {line!r}")
            row = f"result.reports.{i}."
            fields.update({row + "rule": m.group(1), row + "holds": m.group(2) == "holds",
                           row + "lhs": m.group(3), row + "rhs": m.group(4)})
        fields["_rows"] = len(rows)
        return fields
    if cmd == "plot" and len(lines) == 2:
        patterns = patterns[:2]
    _match_lines(lines, patterns, fields)
    return fields


def _match_lines(lines, patterns, fields):
    if len(lines) != len(patterns):
        raise OracleError(f"expected {len(patterns)} lines, got {len(lines)}")
    for line, pattern in zip(lines, patterns):
        m = re.fullmatch(pattern, line)
        if not m:
            raise OracleError(f"line {line!r} does not match {pattern!r}")
        fields.update((k.replace("__", "."), v) for k, v in m.groupdict().items())


def _p(name):
    """A lazy group for the envelope field ``name`` (dots are not allowed in group names)."""
    return f"(?P<{name.replace('.', '__')}>.+?)"


_TEXT_PATTERNS = {
    "tangent": [
        f"tangent to f\\(x\\) = {_p('inputs.expr')} at p = {_p('inputs.p')}",
        f"  {_p('result.equation')}",
        f"  slope     k = {_p('result.slope')}",
        f"  intercept b = {_p('result.intercept')}",
        f"  cofactor  Q = {_p('result.cofactor')}",
        f"  certificate: {_p('result.certificate.difference')} = "
        f"{_p('result.certificate.factored')}",
    ],
    "derive": [f"d/dx {_p('inputs.expr')} = {_p('result.derivative')}"],
    "check": [
        f"f\\(x\\) = {_p('inputs.expr')} against {_p('result.line')} at p = {_p('inputs.p')}",
        f"  intersection multiplicity: {_p('result.multiplicity')}",
        f"  verdict: {_p('result.tangent')}",
    ],
    "mult": [
        f"f\\(x\\) = {_p('inputs.expr')} against {_p('result.line')} at p = {_p('inputs.p')}",
        f"  intersection multiplicity: {_p('result.multiplicity')}",
    ],
    "decompose": [
        f"f\\(x0 \\+ t\\) for f\\(x\\) = {_p('inputs.expr')}, x0 = {_p('inputs.x0')}",
        f"  value     f\\(x0\\)  = {_p('result.value')}",
        f"  slope     f'\\(x0\\) = {_p('result.slope')}",
        f"  remainder R\\(t\\)   = {_p('result.remainder')}",
        f"  valuation        = {_p('result.valuation')}",
    ],
    "expand": [
        f"f\\({_p('inputs.p')} \\+ t\\) = {_p('result.polynomial')}",
        f"  coefficients: {_p('result.coefficients')}",
    ],
    "table": [
        f"difference quotients for f\\(x\\) = {_p('inputs.expr')} at x0 = {_p('result.x0')} "
        f"\\(slope {_p('result.slope')}\\)",
        re.escape("  {:>12}  {:>16}  {:>16}  {:>16}".format("h", "dy/dx", "gap", "gap (decimal)")),
    ],
    "rules": [f"differentiation rules for f = {_p('inputs.f')}, g = {_p('inputs.g')}"],
    "dual": [
        f"{_p('inputs.fn')} at \\({_p('inputs.a')} \\+ {_p('inputs.b')}\\*eps\\)",
        f"  real = {_p('result.real')}",
        f"  eps  = {_p('result.eps')}",
    ],
    "plot": [
        f"wrote {_p('result.out')} \\({_p('result.size')}, x in \\[{_p('result.range')}\\], "
        f"{_p('result.samples')} samples\\)",
        f"  tangent: slope {_p('result.slope')}, intercept {_p('result.intercept')}",
        f"  secant: dx = {_p('result.dx')}, dy = {_p('result.delta_y')}, "
        f"differential = {_p('result.differential')}",
    ],
}

# Text mode prints these fields in another form than the JSON value.
_TEXT_CONVERT = {
    "result.multiplicity": lambda s: s if s == "INFINITE" else int(s),
    "result.valuation": lambda s: s if s == "INFINITE" else int(s),
    "result.tangent": lambda s: {"tangent": True, "not tangent": False}.get(s, s),
    "result.samples": int,
    "result.coefficients": lambda s: s.split(", ") if s else [],
}


def _text_to_json_values(fields):
    out = {}
    for key, value in fields.items():
        if key in _TEXT_CONVERT:
            try:
                value = _TEXT_CONVERT[key](value)
            except ValueError:
                raise OracleError(f"bad {key} {value!r}") from None
        out[key] = value
    return out


def check(spec, exit_code, stdout: str) -> None:
    """Raise OracleError unless the response is right for the request."""
    if exit_code != spec["exit"]:
        raise OracleError(f"exit code {exit_code}, expected {spec['exit']}")
    if spec["exit"] != 0:
        _check_error(spec, stdout)
        return
    expected = expected_fields(spec)
    if spec["json"]:
        got = _json_fields(stdout)
        if set(got) != set(expected):
            raise OracleError(f"envelope fields differ: {sorted(set(got) ^ set(expected))}")
    else:
        got = _text_to_json_values(_text_fields(spec["command"], stdout))
        rows = got.pop("_rows", None)
        if spec["command"] == "table" and rows != spec["steps"]:
            raise OracleError(f"{rows} table rows, expected {spec['steps']}")
        if spec["command"] == "rules" and rows != 4:
            raise OracleError(f"{rows} rule rows, expected 4")
        unknown = set(got) - set(expected)
        if unknown:
            raise OracleError(f"unexpected fields {sorted(unknown)}")
        if spec["command"] == "plot" and ("result.dx" in got) != (spec.get("dx") is not None):
            raise OracleError("secant line present without --dx or missing with it")
    for key, value in got.items():
        try:
            expected[key](value)
        except OracleError as exc:
            raise OracleError(f"{spec['command']} {key}: {exc}") from None


def _check_error(spec, stdout):
    if not spec["json"]:
        if not re.fullmatch(r"error: [^\n]+\n", stdout):
            raise OracleError(f"bad text error output {stdout!r}")
        return
    env = _json_fields(stdout)
    want = {"command": spec["command"], "result": None, "status": "error"}
    want.update({f"inputs.{k}": v for k, v in spec["raw"].items()})
    message = env.pop("error", None)
    if env != want or not isinstance(message, str) or not message:
        raise OracleError(f"bad error envelope {env!r}")
