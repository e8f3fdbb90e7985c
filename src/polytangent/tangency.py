"""Tangent lines by the double-root criterion, and derivatives built from them.

A line y = k*x + b is tangent to a polynomial f at x = p exactly when
(x - p)**2 divides f(x) - (k*x + b), i.e. when

    f(x) - (k*x + b) = (x - p)**2 * Q(x)

for some cofactor polynomial Q.  The tangent is f mod (x - p)**2, from
two synthetic divisions by (x - p): the remainders are f(p), then the
slope k, so b = f(p) - p*k, and Q is the second quotient; the
factorization is re-checked coefficient by coefficient.  The multiplicity
divides f - g, for a line g = Polynomial((b, k)) or any polynomial g,
until a remainder is nonzero; n divisions give the Taylor shift.

For p = a/b and f = F/d with integer F, the tangent and the multiplicity
divide the integer polynomial H(y) = b**n * F(y/b) by the monic y - a
instead, so no step builds a Fraction; each output is one Fraction over
D = d*b**n.  The Taylor shift still divides in Fractions.

Letting p vary produces the derivative as a function.  It is generated
here in one pass by evaluating f at the dual element x + eps over the
polynomial ring, each step two shifts and an add: the eps component is
the derivative polynomial.  No limits are taken anywhere; the
difference-quotient behaviour is a consequence, checked in
:mod:`polytangent.decomposition`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .dual import Dual, eval_poly
from .polynomial import ONE, Polynomial, RationalFunction, X, integer_content, polynomial_gcd
from .rational import exact

# Marker for "the difference is identically zero": a line coincident
# with the curve, or a zero remainder.  math.inf keeps comparisons like
# multiplicity >= 2 natural.
INFINITE = math.inf


class CertificateError(RuntimeError):
    """A constructed tangent failed its own factorization re-check.

    This indicates an internal arithmetic bug and should never occur.
    """


class TangentLine(namedtuple("TangentLine", "point slope intercept cofactor")):
    """The tangent to a polynomial at ``point``, with its divisibility certificate.

    For the polynomial f it was built from:
    f(x) - (slope*x + intercept) = (x - point)**2 * cofactor(x), exactly.
    """

    __slots__ = ()


def _divide(cs: list[Fraction], p: Fraction) -> tuple[list[Fraction], Fraction]:
    """Divide sum cs[i]*x**i by (x - p) by Horner, in place: (quotient, remainder f(p))."""
    for j in range(len(cs) - 2, -1, -1):
        cs[j] += p * cs[j + 1]
    return cs[1:], cs[0]


def _scaled(cs, p: Fraction) -> tuple[list[int], int]:
    """(H, D) with H[j] = F[j]*b**(n - j) for cs = F/d and p = a/b: f(x) = H(b*x)/D, D = d*b**n.

    H(y) = b**n * F(y/b) has integer coefficients, and x - p divides f
    exactly when the monic y - a divides H, so ``_divide`` runs on H
    with the integer a.  D holds only for cs not empty.
    """
    ints, d = integer_content(cs)
    b, h, s = p.denominator, [0] * len(ints), 1
    for j in range(len(ints) - 1, -1, -1):
        h[j] = ints[j] * s
        s *= b
    return h, d * s // b


def taylor_shift(f: Polynomial, center) -> Polynomial:
    """f(center + t) in t: the remainders of n divisions by (x - center), O(n**2)."""
    p = exact(center)
    cs, out = list(f.coeffs), []
    while cs:
        cs, r = _divide(cs, p)
        out.append(r)
    return Polynomial._trusted(out)


def intersection_multiplicity(f: Polynomial, g: Polynomial, point):
    """Largest m with (x - point)**m dividing f - g; INFINITE if f == g.

    For a line g, m = 0 misses (point, f(point)), m = 1 crosses and m >= 2
    is tangency; any other g gives the order of contact.  With point = a/b,
    (x - point)**m divides f - g exactly when (y - a)**m divides its
    scaled integer form H (see ``_scaled``), so the divisions by y - a
    run on integers, stop at the first nonzero remainder and build no
    Fraction: m + 1 O(n) divisions.
    """
    p = exact(point)
    cs, _ = _scaled((f - g).coeffs, p)
    for m in range(len(cs)):  # at the latest, the leading coefficient is a nonzero remainder
        cs, r = _divide(cs, p.numerator)
        if r:
            return m
    return INFINITE


def is_tangent(f: Polynomial, g: Polynomial, point) -> bool:
    """The double-root test: tangent iff the intersection multiplicity is >= 2.

    A coincident g (INFINITE multiplicity) counts as tangent, so a line
    is its own tangent at every point.
    """
    return intersection_multiplicity(f, g, point) >= 2


def tangent_at(f: Polynomial, point) -> TangentLine:
    """Construct the unique tangent to f at the given abscissa.

    With p = a/b and f(x) = H(b*x)/D (see ``_scaled``), two integer
    divisions by y - a give H = (y - a)*q1 + v and q1 = (y - a)*q + k_H,
    so f - (k*x + c) = (x - p)**2 * Q with k = k_H*b/D,
    c = (v - a*k_H)/D and Q_j = q_j*b**(j + 2)/D.  The result is
    re-verified from f, k, c and Q alone: times D*b**2 the identity is
    (b*x - a)**2 * (D*Q) + b**2*(D*k*x + D*c), an integer sum written out
    with no Polynomial product or power, and each coefficient of f is
    rebuilt from it with one Fraction.  A constant gets its own
    horizontal line, the zero polynomial y = 0, both with a zero cofactor.
    """
    p = exact(point)
    a, b = p.numerator, p.denominator
    h, D = _scaled(list(f.coeffs) + [Fraction(0)] * (2 - len(f.coeffs)), p)
    q1, v = _divide(h, a)
    q, k_h = _divide(q1, a)
    k, c = Fraction(k_h * b, D), Fraction(v - a * k_h, D)
    den, qs = D // (b * b), []  # d*b**(n - 2), the denominator of q_0
    for qj in q:
        qs.append(Fraction(qj, den))
        den //= b
    cofactor = Polynomial._trusted(qs)
    # Times D*b**2, f = (x - p)**2*Q + k*x + c holds in integers once D*c, D*k and each D*Q_j
    # are integers.  Coefficient i of (b*x - a)**2 * P is b**2*P[i-2] - 2ab*P[i-1] + a**2*P[i],
    # and padded[i + 2] is P[i].
    outputs = (c, k, *cofactor.coeffs)
    if any(D % t.denominator for t in outputs):
        raise CertificateError(f"tangent certificate failed for f = {f} at p = {p}")
    dc, dk, *dq = [t.numerator * (D // t.denominator) for t in outputs]
    b2, two_ab, a2 = b * b, 2 * a * b, a * a
    padded = [0, 0, *dq, 0, 0]
    rebuilt = [b2 * padded[i] - two_ab * padded[i + 1] + a2 * padded[i + 2]
               for i in range(len(padded) - 2)]
    rebuilt[0] += b2 * dc
    rebuilt[1] += b2 * dk
    scale = D * b2
    if Polynomial._trusted([Fraction(s, scale) for s in rebuilt]) != f:
        raise CertificateError(f"tangent certificate failed for f = {f} at p = {p}")
    return TangentLine(p, k, c, cofactor)


def derivative(f: Polynomial) -> Polynomial:
    """The derivative polynomial: p -> slope of the tangent at p.

    Computed symbolically by one Horner pass of f at the dual element
    x + eps over the polynomial ring; the eps component collects the
    linear terms of every local expansion at once.  Each step multiplies
    by x, which is a shift, so the pass takes no schoolbook product.
    Agrees pointwise with tangent_at(f, p).slope for every rational p.
    """
    return eval_poly(f, Dual(X, ONE)).eps


def ratfun_derivative(r: RationalFunction) -> RationalFunction:
    """Quotient rule on a canonical f/g, taken in reduced form.

    With h = gcd(g, g') and s = g/h, (f/g)' = (f'*s - f*(g'/h)) / (g*s),
    already canonical: if p**e exactly divides g (p irreducible), p**(e-1)
    exactly divides g' and h, so p divides f'*s but, as p does not divide
    f, not f*(g'/h) nor the numerator; and g*s is monic.  One gcd of
    (g, g') replaces the one of (f'g - fg', g**2): the test mod 2^61 - 1
    usually proves h = 1, and the two divisions by h then return their
    operands; otherwise a primitive remainder sequence finds h.
    """
    f, g = r.num, r.den
    dg = derivative(g)
    h = polynomial_gcd(g, dg)
    s = g // h
    num = derivative(f) * s - f * (dg // h)
    return RationalFunction._canonical(num, g * s)
