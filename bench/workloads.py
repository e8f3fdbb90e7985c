"""Seeded request generators for the three benchmark workloads.

Every workload is a list of *rounds*.  A round has a fixed shape (which
command, degree and input form goes in each slot) and seeded values, so
two seeds serve the same mix and differ only in coefficients and points.
The runner serves whole rounds, which keeps the mix of a run, and with it
the median and tail, independent of where the clock stops.

Each request is ``(argv, spec)``: ``argv`` is all the program sees, and
``spec`` tells the oracle what was asked (see ``oracle.py``).  Output
paths for ``plot`` hold the placeholder ``{PLOTDIR}``, filled in by the
runner, so the argv list and its hash depend only on the seed.

cli-small
    All ten commands at degree <= 8 with small rationals, half of them
    with ``--json``, plus malformed and out-of-domain inputs with the
    exit code the CLI contract promises (2).  Per-request fixed cost
    dominates: argparse, ``parser``, envelope and text/JSON rendering,
    object construction, SVG rendering.  ``dual exp`` with a in
    [710, 1000] overflows today and counts as a failure until the
    program maps it to exit 2.  Left out: ``table --steps 100000000``,
    which never returns, and an in-process loop has no per-request
    deadline.
exact-core
    ``tangent``, ``derive``, ``expand``, ``decompose`` and ``check`` at
    degree 32 and 64 in both input forms, each command once at degree
    128, and one ``expand`` at degree 256, with rational coefficients
    and points; an input is dense coefficient text or a product of two
    binomial powers, so that lowering multiplies.  Multiply,
    ``taylor_shift``, the dual-Horner ``derivative`` and the certificate
    re-check do almost all the work.  Left out: degree 1024, where one
    request takes about 27 s.
ratfun-rules
    ``rules f g`` with f and g of degree 2-7, and ``derive`` of
    ``num/den^k`` with degree up to 12 and k <= 3.  Loads the same
    ``polynomial`` layer the other way round: Euclid (``divmod``,
    ``polynomial_gcd``) during canonicalisation, composition in the
    chain rule, and the failed ``lower_poly`` before ``lower_ratfun``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

from oracle import deriv, expand, horner

PLOTDIR = "{PLOTDIR}"


# -- value generators -----------------------------------------------------------


def _small(rng, top=9):
    """A nonzero rational with numerator and denominator at most ``top``."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, top))


def _banded(rng, lo, hi, sign=True):
    """num/den with both drawn from [lo, hi] and coprime, so sizes stay steady."""
    while True:
        n, d = rng.randint(lo, hi), rng.randint(lo, hi)
        if gcd(n, d) == 1:
            value = Fraction(n, d)
            return -value if sign and rng.random() < 0.5 else value


def _dense_coeffs(rng, degree):
    coeffs = [_small(rng) if rng.random() < 0.85 else Fraction(0) for _ in range(degree)]
    return coeffs + [_small(rng)]


def _term_text(c, power, implicit):
    """``(c)*x^k``, or with implicit multiplication ``3x^k``, ``x^k``, ``(3/4)x^k``."""
    if power == 0:
        return f"({c})"
    sym = "x" if power == 1 else f"x^{power}"
    if not implicit:
        return f"({c})*{sym}"
    if c.denominator == 1:
        return sym if c == 1 else f"{c}{sym}"
    return f"({c}){sym}"


def dense_text(coeffs, implicit=False):
    """The polynomial as a sum of coefficient terms, highest power first."""
    terms = [_term_text(c, i, implicit) for i, c in reversed(list(enumerate(coeffs))) if c]
    return " + ".join(terms) or "0"


def _linear_text(a, b):
    return f"({a}x {'-' if b < 0 else '+'} {abs(b)})"


def binomial_text(factors):
    return " * ".join(f"{_linear_text(c[1], c[0])}^{n}" for c, n in factors)


def _positional(cmd, *args, options=()):
    """argparse reads a leading '-' as an option; '--' keeps such args positional."""
    args = [str(a) for a in args]
    if any(a.startswith("-") for a in args):
        return [cmd, *options, "--", *args]
    return [cmd, *options, *args]


def _request(argv, spec, json_mode):
    spec = dict(spec, json=json_mode, exit=spec.get("exit", 0))
    return (["--json", *argv] if json_mode else argv), spec


# -- cli-small --------------------------------------------------------------------


def _cli_small_round(rng, index):
    reqs = []

    def poly(degree_max=8):
        degree = rng.randint(1, degree_max)
        coeffs = _dense_coeffs(rng, degree)
        style = rng.randrange(3)
        if style == 2 and degree >= 2:
            roots = [_small(rng, 5) for _ in range(degree)]
            factors = [([-r, Fraction(1)], 1) for r in roots]
            lead = _small(rng, 5)
            text = f"({lead})" + "".join(f"(x {'-' if r > 0 else '+'} {abs(r)})" for r in roots)
            return [([lead], 1)] + factors, text
        return [(coeffs, 1)], dense_text(coeffs, implicit=style == 1)

    def add(argv, spec):  # alternate --json, starting on the other foot each round
        reqs.append(_request(argv, spec, (len(reqs) + 1 + index) % 2 == 0))

    def pt():
        return _small(rng, 9)

    f, text = poly()
    p = pt()
    add(_positional("tangent", text, p), {"command": "tangent", "f": f, "p": p})
    f, text = poly()
    add(_positional("derive", text), {"command": "derive", "f": f})
    num, den = _dense_coeffs(rng, 2), _dense_coeffs(rng, 2)
    add(_positional("derive", f"({dense_text(num)})/({dense_text(den)})"),
        {"command": "derive", "f": [(num, 1)], "den": [(den, 1)]})
    for cmd in ("check", "check", "mult"):
        f, text = poly()
        p = pt()
        if rng.random() < 0.5:
            ef = expand(f)
            k = horner(deriv(ef), p)
            b = horner(ef, p) - k * p
        else:
            k, b = _small(rng), _small(rng)
        add(_positional(cmd, text, k, b, p), {"command": cmd, "f": f, "k": k, "b": b, "p": p})
    for cmd in ("decompose", "expand"):
        f, text = poly()
        p = pt()
        add(_positional(cmd, text, p), {"command": cmd, "f": f, "p": p})
    f, text = poly(5)
    x0, steps = pt(), rng.randint(1, 8)
    add(_positional("table", text, x0, options=[f"--steps={steps}"]),
        {"command": "table", "f": f, "x0": x0, "steps": steps})
    fc, gc = _dense_coeffs(rng, rng.randint(1, 3)), _dense_coeffs(rng, rng.randint(1, 3))
    add(_positional("rules", dense_text(fc), dense_text(gc)),
        {"command": "rules", "f": [(fc, 1)], "g": [(gc, 1)]})
    f, text = poly()
    a, b = pt(), pt()
    add(_positional("dual", text, a, b), {"command": "dual", "f": f, "a": a, "b": b})
    for fn, a in (
        ("exp", Fraction(rng.randint(-700, 700), rng.randint(1, 9))),
        ("exp", Fraction(-rng.randint(746, 1000))),
        ("log", _banded(rng, 1, 99, sign=False)),
        ("sin", pt()),
        ("cos", pt()),
        ("tan", Fraction(rng.randint(-14, 14), 10)),
    ):
        b = pt()
        add(_positional("dual", fn, a, b), {"command": "dual", "fn": fn, "a": a, "b": b})
    for with_dx in (False, True):
        f, text = poly(5)
        p = pt()
        lo = p - rng.randint(1, 3)
        hi = p + rng.randint(1, 3)
        out = f"{PLOTDIR}/plot-{index}-{int(with_dx)}.svg"
        options = [f"--range={lo},{hi}", f"--out={out}"]
        spec = {"command": "plot", "f": f, "p": p, "lo": lo, "hi": hi, "out": out}
        if with_dx:
            dx = Fraction(rng.randint(1, 9), 10)
            options += [f"--dx={dx}", "--size=640x480"]
            spec.update(dx=dx, size="640x480")
        add(_positional("plot", text, p, options=options), spec)
    # Inputs outside the documented domain: each must give an exit-2 envelope.
    bad_text = rng.choice(["x^^2", "2x +", "y^2 + 1", "(x + 1", "x^(1/2)", "3..5x"])
    p = pt()
    add(_positional("tangent", bad_text, p),
        {"command": "tangent", "exit": 2, "raw": {"expr": bad_text, "p": str(p)}})
    zero_den = f"1/({dense_text([p, Fraction(1)])} - x - ({p}))"
    add(_positional("derive", zero_den), {"command": "derive", "exit": 2, "raw": {"expr": zero_den}})
    a, b = -_banded(rng, 1, 99, sign=False), pt()
    add(_positional("dual", "log", a, b),
        {"command": "dual", "exit": 2, "raw": {"fn": "log", "a": str(a), "b": str(b)}})
    # exp overflows a float beyond 709.78; the contract wants exit 2.
    a, b = rng.randint(710, 1000), pt()
    add(_positional("dual", "exp", a, b),
        {"command": "dual", "exit": 2, "raw": {"fn": "exp", "a": str(a), "b": str(b)}})
    f, text = poly()
    add(_positional("expand", text, "1/0"),
        {"command": "expand", "exit": 2, "raw": {"expr": text, "p": "1/0"}})
    f, text = poly()
    add(_positional("table", text, "1/2", options=["--steps=0"]),
        {"command": "table", "exit": 2, "raw": {"expr": text, "x0": "1/2", "steps": "0"}})
    return reqs


# -- exact-core ---------------------------------------------------------------------

EXACT_COMMANDS = ("tangent", "derive", "expand", "decompose", "check")
EXACT_COMBOS = [(cmd, dense) for cmd in EXACT_COMMANDS for dense in (True, False)]


# Degree 128: every command once, the form alternating; degree 256: the
# expansion at p of a product of binomial powers, where lowering
# multiplies and the Taylor shift runs at full size.
EXACT_HEAVY = [(128, (cmd, i % 2 == 0)) for i, cmd in enumerate(EXACT_COMMANDS)] + [
    (256, ("expand", False))]


def _exact_core_slots(index):
    """Every command and form at degree 32 and 64, then the heavy slots.

    Every round has the same slots, so a run's mix, and with it its
    throughput and percentiles, does not depend on how many rounds fit in
    it; a run serves only about eight.
    """
    return [(32, c) for c in EXACT_COMBOS] + [(64, c) for c in EXACT_COMBOS] + EXACT_HEAVY


def _fixed_size(rng, primes):
    """u/v for two distinct primes of similar size: cost does not swing with the draw."""
    u, v = rng.sample(primes, 2)
    return Fraction(rng.choice([-1, 1]) * u, v)


def _exact_core_round(rng, index):
    reqs = []
    for degree, (cmd, dense) in _exact_core_slots(index):
        if dense:
            coeffs = [_banded(rng, 10, 99) for _ in range(degree + 1)]
            f, text = [(coeffs, 1)], dense_text(coeffs)
        else:
            big = degree * 3 // 4
            f = [([_fixed_size(rng, (17, 19, 23, 29)) for _ in range(2)], big),
                 ([_fixed_size(rng, (17, 19, 23, 29)) for _ in range(2)], degree - big)]
            text = binomial_text(f)
        p = _fixed_size(rng, (11, 13, 17, 19))
        if cmd == "derive":
            argv, spec = _positional(cmd, text), {"command": cmd, "f": f}
        elif cmd == "check":
            ef = expand(f)
            k = horner(deriv(ef), p)
            b = horner(ef, p) - k * p
            argv = _positional(cmd, text, k, b, p)
            spec = {"command": cmd, "f": f, "k": k, "b": b, "p": p}
        else:
            argv, spec = _positional(cmd, text, p), {"command": cmd, "f": f, "p": p}
        reqs.append(_request(argv, spec, True))
    return reqs


# -- ratfun-rules --------------------------------------------------------------------

RULES_DEGREES = ((2, 7), (3, 6), (4, 5), (5, 4), (6, 3), (7, 2))
RATFUN_SHAPES = ((12, 4, 3), (8, 6, 2), (5, 12, 1), (10, 3, 3), (7, 7, 2), (3, 9, 1))


def _fixed_coeffs(rng, degree):
    # No zero coefficients and no size spread: Euclid's coefficient growth,
    # and so the cost of a request, then depends on the shape alone.
    return [_fixed_size(rng, (7, 11, 13)) for _ in range(degree + 1)]


def _ratfun_rules_round(rng, index):
    reqs = []
    shift = index % len(RULES_DEGREES)
    for i in range(len(RULES_DEGREES)):
        df, dg = RULES_DEGREES[(i + shift) % len(RULES_DEGREES)]
        fc, gc = _fixed_coeffs(rng, df), _fixed_coeffs(rng, dg)
        reqs.append(_request(_positional("rules", dense_text(fc), dense_text(gc)),
                             {"command": "rules", "f": [(fc, 1)], "g": [(gc, 1)]}, True))
        dn, dd, k = RATFUN_SHAPES[(i + shift) % len(RATFUN_SHAPES)]
        num, den = _fixed_coeffs(rng, dn), _fixed_coeffs(rng, dd)
        text = f"({dense_text(num)})/({dense_text(den)})^{k}"
        reqs.append(_request(_positional("derive", text),
                             {"command": "derive", "f": [(num, 1)], "den": [(den, k)]}, True))
    return reqs


# -- registry --------------------------------------------------------------------------

# name -> (round generator, rounds generated per seed, tail percentile).
# The runner cycles through the rounds if a run outlasts them; the counts
# cover a 60 s run on a 2-core x86 host.  The tail percentile is fixed
# per workload so that two commits compare the same percentile, and a
# faster program only adds samples beyond it.  Each has well over ten
# samples beyond it in a 30 s run at the commit that defined the
# benchmark (about 7000, 150 and 750 requests); exact-core uses p75, which
# falls among the slowest degree-64 requests, because its p90 would fall
# between degree-128 requests whose costs lie far apart.
WORKLOADS = {
    "cli-small": (_cli_small_round, 400, 99.0),
    "exact-core": (_exact_core_round, 24, 75.0),
    "ratfun-rules": (_ratfun_rules_round, 80, 95.0),
}


def generate(workload: str, seed: int):
    """The rounds of ``workload`` for ``seed``: a list of lists of (argv, spec)."""
    make, count, _ = WORKLOADS[workload]
    return [make(random.Random(f"{workload}/{seed}/{i}"), i) for i in range(count)]


def argv_hash(rounds) -> str:
    """SHA-256 of every argv in order, to show two runs served the same inputs."""
    digest = hashlib.sha256()
    for reqs in rounds:
        for argv, _ in reqs:
            digest.update(json.dumps(argv).encode())
            digest.update(b"\n")
    return digest.hexdigest()
