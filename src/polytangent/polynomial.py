"""Dense univariate polynomials and rational functions over exact rationals.

A :class:`Polynomial` is an immutable sequence of ``Fraction``
coefficients, ``coeffs[i]`` multiplying ``x**i``, with no trailing zero
coefficient.  The zero polynomial is the empty sequence and its degree
is ``None`` rather than any number, so degree arithmetic can never
silently use a bogus -1.  Coefficients are validated once, at the public
constructor; ring operations trust the ``Fraction``s they compute.

Arithmetic is exact schoolbook arithmetic that skips structural zeros:
a product with the module's ``X``, matched by identity, is a shift by
one place, so a dual-Horner derivative step is two shifts and an add; a
product with any other monomial ``c*x^j`` is a shift and a scale; a
square is a power; the schoolbook loop multiplies by no zero coefficient
and no coefficient 1, and stores the first term to reach a slot rather
than adding it to a zero; and a sum adds no zero coefficient.  A power
makes no product: Miller's recurrence runs on the integer numerators
over one common denominator and skips the zero coefficients of the
base, so ``(c*x^j)^e`` takes no step and a two-term base O(e) steps.
A composition f(g) makes no ``Fraction`` until its end: Horner runs on
the integer numerators of f and g, each over its common denominator,
and one division per coefficient builds the result.
Division and the gcd run on the same integer numerators: a division is
Knuth's pseudo-division, and a gcd that the test mod 2^61 - 1 does not
settle is a primitive remainder sequence, each building its
``Fraction``s once at the end.
A :class:`RationalFunction` is a canonical value only:
the arithmetic of rational expressions happens on numerator and
denominator polynomials while ``parser.parse`` reads the text, and
``parser.lower_ratfun`` reduces the result once.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm

from .rational import exact

_ZERO_COEFF = Fraction(0)  # shared by the zero slots of products: a Fraction is immutable


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction | str] = ()):
        cs = [exact(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def _trusted(cls, cs: list[Fraction]) -> "Polynomial":
        """Build from a list already holding Fractions: trim it, skip ``exact``."""
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Highest power with a nonzero coefficient; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, power: int) -> Fraction:
        """The coefficient of x**power (zero beyond the stored length)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __hash__(self):
        # A constant equals its scalar (ZERO == 0), so it hashes as one.
        return hash(self.coefficient(0) if len(self.coeffs) <= 1 else self.coeffs)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            if c:  # a zero addend is skipped; a zero slot takes the addend as it is
                out[i] = out[i] + c if out[i] else c
        return Polynomial._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted([-c for c in self.coeffs])

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        # Cheapest case first.  ONE and X are matched by identity, before any
        # scan: a factor 1 returns the other operand itself (it is immutable),
        # and a factor x shifts it by one place, as each dual-Horner
        # derivative step does twice.  A monomial c*x^j on either side (of
        # two, the shorter; a scalar is j = 0) shifts the other operand by j
        # and scales it by c unless c is 1.  A square is self**2, Miller's
        # recurrence on integer content.  The schoolbook loop skips zero
        # coefficients, multiplies by no coefficient 1, and stores the first
        # term to reach a slot rather than adding it to a zero.
        if isinstance(other, Polynomial):
            if self is ONE or other is ONE:
                return other if self is ONE else self
            if self is X or other is X:
                a = other.coeffs if self is X else self.coeffs
                return Polynomial._trusted([_ZERO_COEFF, *a]) if a else ZERO
            b = other.coeffs
        elif isinstance(other, (int, Fraction)):
            if not other:
                return ZERO  # multiplies no coefficient
            b = (other,)  # c*x^0: one coefficient, never swapped left
        else:
            return NotImplemented
        a = self.coeffs
        if _is_monomial(a) and (len(a) < len(b) or not _is_monomial(b)):
            self, a, b = other, b, a
        if _is_monomial(b):
            c = b[-1]
            if c == 1 and len(b) == 1:
                return self
            out = list(b[:-1])  # the j zeros
            out += a if c == 1 else [x * c if x else x for x in a]
            return Polynomial._trusted(out)
        if self is other:
            return self**2
        terms = [(j, y, y == 1) for j, y in enumerate(b) if y]
        out = [None] * (len(a) + len(b) - 1)  # None: no term has reached the slot
        for i, x in enumerate(a):
            if x:
                unit = x == 1
                for j, y, y_unit in terms:
                    t = y if unit else x if y_unit else x * y
                    s = out[i + j]
                    out[i + j] = t if s is None else s + t
        return Polynomial._trusted([_ZERO_COEFF if c is None else c for c in out])

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        """self**e by J. C. P. Miller's recurrence on the integer content (TAOCP 4.7).

        With self = x^v * P(x) / d, d the lcm of the denominators and P an
        integer polynomial with p0 != 0, Q = P^e has q0 = p0^e and
        k*p0*q_k = sum over j >= 1 of ((e + 1)*j - k)*p_j*q_(k-j), an exact
        division because P*Q' = e*P'*Q.  A zero p_j costs nothing, so a
        monomial takes no step and a two-term base O(e) steps.
        """
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponents must be non-negative integers")
        cs = self.coeffs
        if not cs:
            return ZERO if exponent else ONE
        v = 0
        while not cs[v]:
            v += 1
        p, d = integer_content(cs[v:])
        p0, n = p[0], len(p) - 1
        q = [p0**exponent]
        if n:  # a constant P has nothing to recur on
            terms = [(j, (exponent + 1) * j, p[j]) for j in range(1, n + 1) if p[j]]
            for k in range(1, n * exponent + 1):
                s = 0
                for j, ej, pj in terms:
                    if j > k:
                        break
                    s += (ej - k) * pj * q[k - j]
                q.append(s // (k * p0))
        de = d**exponent
        return Polynomial._trusted([Fraction(0)] * (v * exponent) + [Fraction(c, de) for c in q])

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        """Exact division f = q*g + r, with r = 0 or degree(r) < degree(g), on integer content.

        With f = a/d and g = b/e, pseudo-division gives lc(b)^t * a = Q*b + R
        for t = deg a - deg b + 1, so q = Q*e/(d*lc^t) and r = R/(d*lc^t),
        one Fraction per coefficient.  A constant g scales f, and g = 1
        returns f itself.
        """
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        if len(self.coeffs) < len(other.coeffs):
            return ZERO, self
        if len(other.coeffs) == 1:
            c = other.coeffs[0]
            return (self if c == 1 else self * (1 / c)), ZERO
        (a, d), (b, e) = integer_content(self.coeffs), integer_content(other.coeffs)
        tops, rem = _pseudo_divide(a, b)
        # Q has tops[i]*lc^k at x^k for k = t-1-i, so q has tops[i]*e/(d*lc^(i+1)) there.
        quot, den = [], d
        for top in tops:
            den *= b[-1]
            quot.append(Fraction(top * e, den))
        quot.reverse()
        return Polynomial._trusted(quot), Polynomial._trusted([Fraction(c, den) for c in rem])

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        """Scale so the leading coefficient is 1."""
        lead = self.leading_coefficient
        return self if lead == 1 else self * (Fraction(1) / lead)

    # -- evaluation ------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation at any ring element.

        For a polynomial g the composition f(g) runs on the integer
        content: with f = F/d and g = G/e, the Horner step
        acc <- acc*G + F_i*e^(n-i) gives f(g) = acc/(d*e^n), so the loop
        makes no Fraction and the result one per coefficient.  Any other
        argument, an exact rational or a dual number, takes the generic
        Horner over its own ring.
        """
        if isinstance(x, Polynomial):
            # A zero g enters as the constant 0, so every out has a constant slot.
            (fs, d), (gs, e) = integer_content(self.coeffs), integer_content(x.coeffs or (0,))
            if not fs:
                return ZERO
            terms = [(j, b) for j, b in enumerate(gs) if b]
            acc, scale = fs[-1:], 1
            for c in reversed(fs[:-1]):
                scale *= e
                out = [0] * (len(acc) + len(gs) - 1)
                for i, a in enumerate(acc):
                    if a:
                        for j, b in terms:
                            out[i + j] += a * b
                out[0] += c * scale
                acc = out
            den = d * scale
            return Polynomial._trusted([Fraction(c, den) for c in acc])
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- rendering -------------------------------------------------------

    def render(self, var: str = "x") -> str:
        """Canonical text: descending powers, explicit signs, `^` exponents."""
        return render_terms([str(c) if c else "0" for c in self.coeffs], var)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"


def render_terms(texts: list[str], var: str = "x") -> str:
    """The canonical text of the polynomial whose coefficient i prints as texts[i].

    A "0" entry is a zero term and is left out.  The sign is the text's
    leading "-", so rendering does no Fraction arithmetic or comparison,
    and a caller that already holds the coefficient strings converts none
    of them again.
    """
    parts: list[str] = []
    for power in range(len(texts) - 1, -1, -1):
        size = texts[power]
        if size == "0":
            continue
        negative = size[0] == "-"
        if negative:
            size = size[1:]
        if power == 0:
            body = size
        else:
            sym = var if power == 1 else f"{var}^{power}"
            body = sym if size == "1" else f"{size}*{sym}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts) or "0"


def _is_monomial(cs: tuple[Fraction, ...]) -> bool:
    """c*x^j: a nonempty coefficient sequence that is zero but for its last entry."""
    return bool(cs) and not any(cs[:-1])


def integer_content(cs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """(ints, d) with d the lcm of the denominators and cs[i] = ints[i] / d; ([], 1) for none."""
    d = lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def _coerce(value) -> Polynomial | None:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    return None


ZERO = Polynomial()
ONE = Polynomial((1,))
X = Polynomial((0, 1))


def polynomial_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor, by a primitive remainder sequence on integer content.

    gcd(f, 0) is monic(f); gcd(0, 0) is undefined and raises.  When f
    and g both have degree >= 1, a Euclid mod the prime P = 2^61 - 1
    runs first, and a constant gcd there proves gcd(f, g) = 1 (Brown,
    JACM 1971): if no coefficient denominator and neither leading
    coefficient vanishes mod P, a common factor over Q keeps its degree
    mod P.  Any other outcome runs the primitive PRS (Knuth, TAOCP 4.6.1)
    on the integer numerators: each step takes a pseudo-remainder and
    divides out its content, and the last nonzero one, made monic, is
    the gcd.
    """
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    (a, da), (b, db) = integer_content(f.coeffs), integer_content(g.coeffs)
    if f.degree and g.degree and _coprime_mod_p(a, da, b, db):
        return ONE
    a, b = _primitive(a), _primitive(b)
    while b:
        if len(b) == 1:
            return ONE  # a nonzero constant divides everything
        a, b = b, _primitive(_pseudo_divide(a, b)[1])
    return Polynomial._trusted([Fraction(c, a[-1]) for c in a])


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Knuth's Algorithm R: (tops, R) with lc^t * a = Q*b + R for lc = b[-1], deg b >= 1.

    t = len(a) - len(b) + 1.  Step i reads the top of the window, tops[i], so that Q
    has tops[i]*lc^k at x^k for k = t-1-i, then scales the window by lc
    and subtracts tops[i]*x^k*b.  An entry below the window takes its
    pending power lc^i only when the window reaches it, so the division
    costs O(t*deg b) multiply-adds.  R has len(b) - 1 entries, untrimmed;
    for t <= 0 it is a itself.
    """
    n = len(b) - 1
    if len(a) <= n:
        return [], a
    lead, low = b[-1], b[:-1]
    window, scale, tops = a[len(a) - n - 1:], 1, []
    for k in range(len(a) - n - 1, -1, -1):
        top = window.pop()
        tops.append(top)
        if top:
            window = [lead * u - top * v for u, v in zip(window, low)]
        else:
            window = [lead * u for u in window]
        if k:
            scale *= lead
            window.insert(0, a[k - 1] * scale)
    return tops, window


def _primitive(cs: list[int]) -> list[int]:
    """cs without its trailing zeros, divided by the gcd of its entries ([] for none)."""
    while cs and not cs[-1]:
        cs.pop()
    c = gcd(*cs)
    return [x // c for x in cs] if c > 1 else cs


_P = 2**61 - 1  # a Mersenne prime: residues are word-sized Python ints


def _coprime_mod_p(a: list[int], da: int, b: list[int], db: int) -> bool:
    """True when a/da and b/db (degree >= 1) reduce mod _P, keep their degrees and are coprime.

    Each enters as its integer content: scaling by d, a unit mod _P
    unless _P divides a denominator, changes no gcd degree.  False means
    only that this test proves nothing.
    """
    a, b = [n % _P for n in a], [n % _P for n in b]
    if not (da % _P and db % _P and a[-1] and b[-1]):
        return False  # a denominator or a leading coefficient vanishes mod _P
    while len(b) > 1:  # b has degree >= 1: replace (a, b) by (b, a mod b)
        # lc(b) is a unit mod _P, so the pseudo-remainder is a unit times a mod b.
        r = [n % _P for n in _pseudo_divide(a, b)[1]]
        while r and not r[-1]:
            r.pop()
        if not r:
            return False  # b divides a: the gcd mod P has degree >= 1
        a, b = b, r
    return True  # b is a nonzero constant


class RationalFunction:
    """A quotient num/den of polynomials as a canonical value.

    Construction reduces: gcd(num, den) = 1 and den monic; zero is 0/1.
    With that normalization, equality with another RationalFunction is
    plain structural equality.  A Polynomial p never equals
    RationalFunction(p).  There is no arithmetic here: build a rational
    expression's numerator and denominator as polynomials (as
    ``parser.lower_ratfun`` does) and construct the value once.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num, den = _coerce(num), _coerce(den)
        if num is None or den is None:
            raise TypeError("a rational function is built from polynomials or exact scalars")
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self.num, self.den = ZERO, ONE
            return
        if den.degree and (common := polynomial_gcd(num, den)).degree:
            num, den = num // common, den // common
        scale = Fraction(1) / den.leading_coefficient
        self.num = num * scale
        self.den = den * scale

    @classmethod
    def _canonical(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap a pair already in canonical form, with no gcd."""
        r = object.__new__(cls)
        r.num, r.den = num, den
        return r

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        num_s = str(self.num)
        den_s = str(self.den)
        if _multi_term(self.num):
            num_s = f"({num_s})"
        if _multi_term(self.den):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _multi_term(p: Polynomial) -> bool:
    return sum(1 for c in p.coeffs if c) > 1

