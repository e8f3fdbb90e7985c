"""Increments, exact linear decomposition, and difference-quotient tables.

For a polynomial f and a base point x0, the increment decomposes
exactly as

    f(x0 + dx) = f(x0) + f'(x0)*dx + R(dx)

where the remainder R is a polynomial in dx whose lowest nonzero term
has degree >= 2.  That valuation bound is the exact-algebra form of
"R(dx) vanishes faster than dx": dividing by dx gives

    (f(x0 + dx) - f(x0)) / dx = f'(x0) + R(dx)/dx

with the gap R(dx)/dx an exact rational that shrinks with dx.  The
quotient table below tabulates that identity row by row, its secant
slopes dy/h included, so the classical limiting behaviour of the
difference quotient is bookkeeping on an already-constructed derivative.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .dual import Dual, eval_poly
from .polynomial import Polynomial
from .rational import exact
from .tangency import INFINITE, taylor_shift

# Row k of a degree-n table holds numbers of about n*k digits, so the
# cost grows faster than the row count: at degree 5 on a 2-vCPU Xeon,
# 100 rows take 0.03 s, 400 take 0.2 s and 3200 take 10 s.
MAX_STEPS = 100


class Decomposition(namedtuple("Decomposition", "x0 value slope remainder")):
    """f(x0 + dx) = value + slope*dx + remainder(dx), exactly; remainder has valuation >= 2."""

    __slots__ = ()


class QuotientRow(namedtuple("QuotientRow", "h dy quotient gap")):
    """One exact row of the difference-quotient table; gap = dy/h - f'(x0) = remainder(h)/h."""

    __slots__ = ()


def increment(f: Polynomial, x0, dx) -> Fraction:
    """The exact change of the function: f(x0 + dx) - f(x0)."""
    x0 = exact(x0)
    dx = exact(dx)
    return f(x0 + dx) - f(x0)


def decompose(f: Polynomial, x0) -> Decomposition:
    """Split f(x0 + dx) into value, linear part, and higher-order remainder.

    The local expansion about x0 provides everything: its constant term
    is the value, its linear coefficient the slope, and the rest of the
    expansion (kept aligned at degree 2) is the remainder.
    """
    x0 = exact(x0)
    expansion = taylor_shift(f, x0)
    remainder = Polynomial._trusted([Fraction(0), Fraction(0), *expansion.coeffs[2:]])
    return Decomposition(x0, expansion.coefficient(0), expansion.coefficient(1), remainder)


def remainder_valuation(d: Decomposition):
    """Index of the lowest nonzero remainder coefficient; INFINITE when zero.

    By construction this is at least 2 whenever it is finite.
    """
    return next((i for i, c in enumerate(d.remainder.coeffs) if c), INFINITE)


def quotient_table(f: Polynomial, x0, steps: int) -> list[QuotientRow]:
    """Difference quotients for h = 1/10, 1/100, ..., 1/10**steps, exactly.

    Each row satisfies gap * h = remainder(h); for a line the gaps are
    identically zero.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if steps > MAX_STEPS:
        raise ValueError(f"steps exceeds the limit of {MAX_STEPS}")
    x0 = exact(x0)
    slope = eval_poly(f, Dual(x0, Fraction(1))).eps
    rows = []
    for k in range(1, steps + 1):
        h = Fraction(1, 10**k)
        dy = increment(f, x0, h)
        quotient = dy / h
        rows.append(QuotientRow(h, dy, quotient, quotient - slope))
    return rows
