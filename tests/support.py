"""Seeded generators, Hypothesis strategies and independent oracles shared by the tests.

The oracles deliberately take different routes than the code under
test: products, sums, compositions, divisions and gcds are plain
``Fraction`` loops over ``.coeffs`` with no shortcut for zeros and no
integer content, the power rule is applied
coefficient by coefficient, local
expansions are recomputed by binomial expansion of (p + t)**i with
``math.comb`` over plain ``Fraction``s,
tangents are read off those expansions instead of by division,
rational functions are compared by cross multiplication instead of by
their canonical forms, tangent certificates are checked by plain
``Fraction`` evaluation instead of by polynomial arithmetic, a parsed
sum of monomials is checked against a ``Fraction`` list filled slot by
slot, and a derivative of a rational function is checked pointwise by
the double-root criterion instead of by any derivative code; these
two take plain sequences and call nothing in ``polytangent``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from hypothesis import strategies as st

from polytangent.polynomial import ZERO, Polynomial, RationalFunction


def rand_rational(rng: random.Random, num_lo=-9, num_hi=9, den_hi=9) -> Fraction:
    return Fraction(rng.randint(num_lo, num_hi), rng.randint(1, den_hi))


def rand_polynomial(
    rng: random.Random, max_degree: int = 8, allow_zero: bool = True
) -> Polynomial:
    if allow_zero and rng.random() < 0.05:
        return Polynomial()
    degree = rng.randint(0, max_degree)
    coeffs = [rand_rational(rng) for _ in range(degree + 1)]
    if not coeffs[-1]:
        coeffs[-1] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return Polynomial(coeffs)


def rand_nonzero_polynomial(rng: random.Random, max_degree: int = 8) -> Polynomial:
    while True:
        f = rand_polynomial(rng, max_degree, allow_zero=False)
        if f:
            return f


def from_terms(terms: dict) -> Polynomial:
    """The polynomial sum of c*x^k over {k: c}, built from its coefficient list."""
    return Polynomial([terms.get(k, 0) for k in range(max(terms, default=-1) + 1)])


# Zero, constants (±1 among them), c*x^k with k <= 40, binomials and dense:
# the shapes the monomial and zero-addend shortcuts handle.
# A binomial with a constant term is drawn on its own: it is a monomial
# but for its first coefficient.
_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_powers = st.integers(0, 40)
sparse_polys = st.one_of(
    st.just(ZERO),
    st.sampled_from([1, -1]).map(lambda c: Polynomial((c,))),
    _coeffs.map(lambda c: Polynomial((c,))),
    st.builds(lambda c, k: from_terms({k: c}), _coeffs, _powers),
    st.builds(lambda c, d, k: from_terms({0: c, k: d}), _coeffs, _coeffs, _powers),
    st.dictionaries(_powers, _coeffs, min_size=2, max_size=2).map(from_terms),
    st.builds(Polynomial, st.lists(_coeffs, max_size=9)),
)

# a*x^i + b*x^j with 0 <= i < j <= 5 and a, b nonzero: a base whose power takes O(e) steps.
two_term_polys = st.builds(
    lambda ij, a, b: from_terms(dict(zip(ij, (a, b)))),
    st.sets(st.integers(0, 5), min_size=2, max_size=2),
    _coeffs.filter(bool),
    _coeffs.filter(bool),
)


def assert_well_formed(p: Polynomial) -> None:
    """A result built without validation holds a trimmed tuple of Fractions."""
    assert type(p.coeffs) is tuple
    assert all(type(c) is Fraction for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    assert p == Polynomial(p.coeffs)


@st.composite
def monomial_terms(draw) -> tuple[str, Fraction, int]:
    """(text, c, k): one term whose value is c*x^k, in a shape the parser may keep as a monomial.

    The shapes are (c)*x^k, cx^k, x^k, a product such as 2x*3x^2, a power
    such as (2x^2)^3, c*(x)^0 and a quotient by a constant such as
    x^3/(2/3), each possibly negated; c may be zero.
    """
    c, k = draw(_coeffs), draw(st.integers(0, 12))
    sym = "x" if k == 1 else f"x^{k}"
    factor = str(c) if c.denominator == 1 and c >= 0 else f"({c})"
    shape = draw(st.sampled_from(
        ["explicit", "implicit", "bare", "product", "power", "zeroth", "quotient"]
    ))
    if shape == "explicit":
        text = f"({c})*{sym}"
    elif shape == "implicit":
        text = f"{factor}{sym}"
    elif shape == "bare":
        text, c = sym, Fraction(1)
    elif shape == "product":
        c2, k2 = draw(_coeffs), draw(st.integers(0, 6))
        text, c, k = f"{factor}{sym}*({c2})x^{k2}", c * c2, k + k2
    elif shape == "power":
        e = draw(st.integers(0, 3))
        text, c, k = f"({factor}{sym})^{e}", c**e, k * e
    elif shape == "zeroth":
        text, k = f"({c})*(x)^0", 0
    else:
        q = draw(_coeffs.filter(bool))
        text, c = f"{factor}{sym}/({q})", c / q
    if draw(st.booleans()):
        text, c = f"-{text}", -c
    return text, c, k


def monomial_sum(terms) -> tuple[Fraction, ...]:
    """Independent reference for a sum of monomials: the coefficients of the sum of c*x^k.

    Takes (c, k) pairs and adds each c into slot k of a plain Fraction
    list, in any order, with no shortcut for zeros.
    """
    out = [Fraction(0)] * (max((k for _, k in terms), default=-1) + 1)
    for c, k in terms:
        out[k] += c
    return _trimmed(out)


def _trimmed(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def convolve(a, b) -> tuple[Fraction, ...]:
    """Independent product oracle: the coefficients of a*b from two coefficient sequences."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out)


def reference_divmod(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Independent division oracle: (q, r) with a = q*b + r, by long division in plain Fractions.

    Takes two coefficient sequences, b not zero, and divides by b's
    leading coefficient at every step, with no integer content and no
    shortcut for a constant divisor.
    """
    r, b = list(_trimmed([Fraction(c) for c in a])), _trimmed([Fraction(c) for c in b])
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        c, shift = r[-1] / b[-1], len(r) - len(b)
        q[shift] = c
        for j, d in enumerate(b):
            r[shift + j] -= c * d
        r = list(_trimmed(r))
    return _trimmed(q), tuple(r)


def reference_gcd(a, b) -> tuple[Fraction, ...]:
    """Independent gcd oracle: a monic Euclid over ``reference_divmod``.

    No modular step and no rescaling between steps; a and b are not both zero.
    """
    a, b = _trimmed([Fraction(c) for c in a]), _trimmed([Fraction(c) for c in b])
    while b:
        a, b = b, reference_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def coefficient_sum(a, b, sign=1) -> tuple[Fraction, ...]:
    """Independent sum oracle: the coefficients of a + sign*b from two coefficient sequences."""
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trimmed([Fraction(x) + sign * y for x, y in zip(a, b)])


def compose(f, g) -> tuple[Fraction, ...]:
    """Independent composition oracle: the coefficients of f(g) by Horner over ``convolve``.

    Takes two coefficient sequences and works in plain Fractions, with no
    common denominator and no shortcut for zero or constant operands.
    """
    acc: tuple[Fraction, ...] = ()
    for c in reversed(f):
        acc = coefficient_sum(convolve(acc, g), (c,))
    return acc


def power_rule_derivative(f: Polynomial) -> Polynomial:
    """Independent oracle: differentiate term by term with the power rule."""
    return Polynomial(i * c for i, c in enumerate(f.coeffs) if i > 0)


def binomial_shift(f: Polynomial, p: Fraction) -> tuple[Fraction, ...]:
    """Independent oracle for local expansions: sum of a_i * (p + t)**i.

    Each (p + t)**i is the sum of C(i, j) * p**(i - j) * t**j, summed in
    plain Fractions with no Polynomial arithmetic.
    """
    out = [Fraction(0)] * len(f.coeffs)
    for i, a in enumerate(f.coeffs):
        for j in range(i + 1):
            out[j] += a * comb(i, j) * p ** (i - j)
    return _trimmed(out)


def expansion_tangent(f: Polynomial, p: Fraction) -> tuple[Fraction, Fraction, Polynomial]:
    """Independent oracle for tangents: (slope, intercept, cofactor) from f(p + t).

    With f(p + t) = c0 + c1*t + t**2 * T(t), the slope is c1, the
    intercept c0 - c1*p, and the cofactor is T composed with x - p.
    """
    c = binomial_shift(f, p) + (Fraction(0), Fraction(0))
    return c[1], c[0] - c[1] * p, Polynomial(compose(c[2:], (-p, 1)))


def cross_multiplied_equal(a: RationalFunction, b: RationalFunction) -> bool:
    """Independent oracle for canonical equality: a.num*b.den == b.num*a.den."""
    return a.num * b.den == b.num * a.den


def _horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def certificate_holds(f: Polynomial, k, b, p, cofactor: Polynomial) -> bool:
    """Independent certificate check: f(x) - (k*x + b) == (x - p)**2 * cofactor(x).

    Reads only ``.coeffs`` and evaluates both sides with plain Fraction
    Horner, sharing no arithmetic with ``polynomial.py``.  Both sides have
    degree at most n = max(deg f, deg cofactor + 2, 1), and two such
    polynomials that agree at n + 1 distinct points are equal, so this
    is an exact identity test, not a probabilistic one.
    """
    k, b, p = Fraction(k), Fraction(b), Fraction(p)
    n = max(len(f.coeffs) - 1, len(cofactor.coeffs) + 1, 1)
    for i in range(n + 1):
        x = Fraction(2 * i - n, 3)
        if _horner(f.coeffs, x) - (k * x + b) != (x - p) ** 2 * _horner(cofactor.coeffs, x):
            return False
    return True


def _divide_by_x_minus(cs, p) -> tuple[list[Fraction], Fraction]:
    """Synthetic division of the sum of cs[i]*x^i by x - p: (quotient coefficients, remainder)."""
    acc, out = Fraction(0), []
    for c in reversed(cs):
        acc = acc * p + c
        out.append(acc)
    rem = out.pop() if out else Fraction(0)
    out.reverse()
    return out, rem


def quotient_rule_holds(n, d, a, b) -> bool:
    """Independent witness that a/b is the derivative of n/d, from the double-root criterion.

    Takes four coefficient sequences, d and b nonzero, and uses no
    derivative code.  At a point p, dividing n by x - p twice leaves
    the remainders n0 and n1, and d likewise d0 and d1.  The line
    y = k*x + c is tangent to n/d at p, that is (x - p)**2 divides
    n - (k*x + c)*d, exactly when k*d0**2 = n1*d0 - n0*d1.  So a/b is
    the derivative exactly when a(p)*d0**2 = b(p)*(n1*d0 - n0*d1) as
    polynomials in p, and both sides have degree below
    T = max(len(a) + 2*len(d), len(b) + len(n) + len(d)): agreement at
    the integer points 0..T proves the identity.
    """
    top = max(len(a) + 2 * len(d), len(b) + len(n) + len(d))
    for p in range(top + 1):
        (nq, n0), (dq, d0) = _divide_by_x_minus(n, p), _divide_by_x_minus(d, p)
        n1, d1 = _horner(nq, p), _horner(dq, p)  # the remainders of the second divisions
        if _horner(a, p) * d0**2 != _horner(b, p) * (n1 * d0 - n0 * d1):
            return False
    return True
