"""Exact rational scalars.

Every coefficient and sample point in this package is a
``fractions.Fraction``: an arbitrary-precision fraction in canonical
reduced form (positive denominator, gcd(|num|, den) = 1, zero stored as
0/1).  ``Fraction(text)`` parses ``n``, ``-n``, ``n/d`` and decimal
literals such as ``1.25`` (exactly 5/4), and ``str`` renders the
canonical text.  Conversion to float is nearest-representable and is
used only for plotting and the float dual path, never inside the exact
core.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction


def exact(value) -> Fraction:
    """Convert an int, Fraction, or string to an exact value.

    Floats are refused: binary floats must never leak into the exact
    core, and a silent exact conversion of one is almost always a bug.
    """
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact arithmetic")
    return Fraction(value)


def to_decimal(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering of an exact rational, rounded to `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quotient)
