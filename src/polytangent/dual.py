"""Dual numbers: pairs a + b*eps with the nilpotency rule eps**2 = 0.

The components live in any commutative ring that supports ``+`` and
``*`` (exact rationals, polynomials, binary floats), so one
implementation serves numeric slope extraction, symbolic derivative
generation, and the float extension to exp, log, sin, cos and tan.
"""

from __future__ import annotations

import math
from collections import namedtuple


class DomainError(ValueError):
    """An elementary function was evaluated outside its domain."""


class Dual(namedtuple("Dual", "real eps")):
    """a + b*eps over a pluggable scalar domain.

    Multiplication drops the eps**2 term:
    (a + b*eps)(c + d*eps) = ac + (ad + bc)*eps.
    Scalars mix in as s = s + 0*eps.
    """

    __slots__ = ()

    def __add__(self, other) -> "Dual":
        if isinstance(other, Dual):
            return Dual(self.real + other.real, self.eps + other.eps)
        return Dual(self.real + other, self.eps)

    __radd__ = __add__

    def __mul__(self, other) -> "Dual":
        if isinstance(other, Dual):
            return Dual(
                self.real * other.real,
                self.real * other.eps + self.eps * other.real,
            )
        return Dual(self.real * other, self.eps * other)

    __rmul__ = __mul__


def eval_poly(f: "Polynomial", x: Dual) -> Dual:
    """Evaluate f at a dual number (Polynomial.__call__ runs Horner on any ring).

    For x = a + b*eps the result is f(a) + f'(a)*b*eps: the eps part
    carries the slope without any division or limiting step.
    """
    return f(x)


ELEMENTARY_TAGS = ("exp", "log", "sin", "cos", "tan")

# Pole cutoff for tan: floats cannot hit cos(a) = 0 exactly, so reject
# anything within 1e-12 of it instead of overflowing silently.
TAN_POLE_CUTOFF = 1e-12


def eval_elementary(tag: str, x: Dual) -> Dual:
    """Evaluate the function named by tag at a float dual: (fn(a), fn'(a)*b) for x = a + b*eps."""
    a, b = x.real, x.eps
    if tag == "exp":
        value = math.exp(a)
        return Dual(value, value * b)
    if tag == "log":
        if a <= 0:
            raise DomainError(f"log needs a positive argument, got {a}")
        return Dual(math.log(a), b / a)
    if tag == "sin":
        return Dual(math.sin(a), math.cos(a) * b)
    if tag == "cos":
        return Dual(math.cos(a), -math.sin(a) * b)
    if tag == "tan":
        c = math.cos(a)
        if abs(c) <= TAN_POLE_CUTOFF:
            raise DomainError(f"tan pole: cos({a}) vanishes to within {TAN_POLE_CUTOFF}")
        return Dual(math.tan(a), b / (c * c))
    raise ValueError(f"unknown elementary function tag {tag!r}")
