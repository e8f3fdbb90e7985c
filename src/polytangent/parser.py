"""Recursive-descent parser for polynomial and rational-function expressions.

Grammar (loosest to tightest binding):

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" nonneg_int)?
    atom   := number | "x" | "(" expr ")"
    number := int | decimal

Whitespace between tokens is ignored.  Decimal literals convert exactly
(1.25 becomes 5/4).  Implicit multiplication like ``2x``, ``2(x+1)`` or
``(x-2)(x-3)`` is accepted by the lexer and normalized to ``*``.
Exponents must be literal non-negative integers, and the only variable
is ``x``.

No syntax tree is built.  The grammar is one recursive descent that
folds each production as it reads it, and ``parse`` runs it twice over
the tokens: once to check the syntax and bound every degree without
arithmetic, then once to fold the value into an unreduced numerator and
denominator.  A fraction such as ``1/2`` is an ordinary division, and a
constant divisor folds into the coefficients, so ``1/2*x`` means
(1/2)*x by left associativity, matching the canonical rendering.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .polynomial import ONE, Polynomial, RationalFunction, X


class ParseError(Exception):
    """A syntax error, with the byte offset where it was detected."""

    def __init__(self, position: int, message: str):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
        self.message = message


# Textual input is untrusted; without a bound, a tiny string like
# "9^999999999" would demand a billion-digit power.
MAX_EXPONENT = 1024

# Bounded exponents still compose: ((x+1)^8)^300 has degree 2400, and
# lowering it takes seconds, so the degree of the lowered value is
# bounded as well.
MAX_DEGREE = 1024


class LoweringError(Exception):
    """A well-formed expression that does not denote the requested kind of value."""


# -- lexer ------------------------------------------------------------------


class Token(namedtuple("Token", "kind value pos")):
    """kind is "num", "x", one of "+-*/^()", or "end"; value is a Fraction or None."""

    __slots__ = ()


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                if i + 1 < n and text[i + 1].isdigit():
                    i += 1
                    while i < n and text[i].isdigit():
                        i += 1
                else:
                    raise ParseError(i, "malformed decimal literal")
            tokens.append(Token("num", Fraction(text[start:i]), start))
            continue
        if ch == "x":
            tokens.append(Token("x", None, i))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(Token(ch, None, i))
            i += 1
            continue
        if ch.isalpha():
            raise ParseError(i, f"unknown symbol {ch!r}; the only variable is x")
        raise ParseError(i, f"unexpected character {ch!r}")
    tokens.append(Token("end", None, n))
    return _insert_implicit_multiplication(tokens)


def _insert_implicit_multiplication(tokens: list[Token]) -> list[Token]:
    out = [tokens[0]]
    for tok in tokens[1:]:
        prev = out[-1]
        if prev.kind in ("num", "x", ")") and tok.kind in ("x", "("):
            out.append(Token("*", None, tok.pos))
        out.append(tok)
    return out




# -- one grammar, two folds ----------------------------------------------------


class _Descent:
    """The grammar, written once: a recursive descent that folds as it reads.

    No tree is built.  A subclass says what each production folds to
    (``number``, ``var``, ``neg``, ``pow`` and ``binary``), and ``parse``
    runs two of them over the same tokens.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self):
        acc = self.term()
        while self.peek().kind in ("+", "-"):
            acc = self.binary(self.advance().kind, acc, self.term())
        return acc

    def term(self):
        acc = self.unary()
        while self.peek().kind in ("*", "/"):
            acc = self.binary(self.advance().kind, acc, self.unary())
        return acc

    def unary(self):
        if self.peek().kind == "-":
            self.advance()
            return self.neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind != "^":
            return base
        self.advance()
        tok = self.peek()
        if tok.kind != "num" or tok.value.denominator != 1:
            raise ParseError(tok.pos, "exponent must be a non-negative integer literal")
        if tok.value > MAX_EXPONENT:
            raise ParseError(tok.pos, f"exponent exceeds the limit of {MAX_EXPONENT}")
        self.advance()
        return self.pow(base, int(tok.value))

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return self.number(tok.value)
        if tok.kind == "x":
            self.advance()
            return self.var()
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            closing = self.peek()
            if closing.kind != ")":
                raise ParseError(closing.pos, "expected ')'")
            self.advance()
            return inner
        if tok.kind == "end":
            raise ParseError(tok.pos, "unexpected end of input")
        raise ParseError(tok.pos, f"unexpected {_describe(tok)}")


def _describe(tok: Token) -> str:
    return "number" if tok.kind == "num" else f"token {tok.kind!r}"


class _Degrees(_Descent):
    """Bounds on the (numerator, denominator) degrees of each node once lowered.

    The bounds are static: + and - follow a/b +- c/d = (a*d +- c*b)/(b*d),
    * adds and ^ multiplies, whatever cancels in the values.  ``peak`` is
    the largest bound at any node, so no intermediate result exceeds it.
    """

    peak = 0

    def _bound(self, n: int, d: int) -> tuple[int, int]:
        self.peak = max(self.peak, n, d)
        return n, d

    def number(self, value):
        return 0, 0

    def var(self):
        return self._bound(1, 0)

    def neg(self, a):
        return a

    def pow(self, a, k):
        return self._bound(a[0] * k, a[1] * k)

    def binary(self, op, a, b):
        (n1, d1), (n2, d2) = a, b
        if op == "*":
            return self._bound(n1 + n2, d1 + d2)
        if op == "/":
            return self._bound(n1 + d2, d1 + n2)
        return self._bound(max(n1 + d2, n2 + d1), d1 + d2)


def _mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b, skipping a unit denominator factor (ONE itself) rather than multiplying by it."""
    return a if b is ONE else b if a is ONE else a * b


def _fold_constant(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(num, den), with a constant den folded into num so that den is ONE or has x."""
    if den.degree:
        return num, den
    scale = den.coeffs[0]
    return (num if scale == 1 else num * (Fraction(1) / scale)), ONE


class _Values(_Descent):
    """The unreduced pair (num, den) whose quotient is each node.

    den is ONE itself or has x in it, so a polynomial folds to (p, ONE).
    ``x_divisor`` records whether any divisor had x in it.  A power
    reduces its base first: gcd(a, b) = 1 gives gcd(a**n, b**n) = 1.
    """

    x_divisor = False

    def number(self, value):
        return Polynomial((value,)), ONE

    def var(self):
        return X, ONE

    def neg(self, a):
        return -a[0], a[1]

    def pow(self, a, k):
        num, den = a
        if den is ONE:
            return num**k, ONE
        base = RationalFunction(num, den)
        return _fold_constant(base.num**k, base.den**k)

    def binary(self, op, a, b):
        (n1, d1), (n2, d2) = a, b
        if op == "*":
            return _mul(n1, n2), _mul(d1, d2)
        if op == "/":
            if not n2:
                raise LoweringError("division by zero")
            if n2.degree:
                self.x_divisor = True
            return _fold_constant(_mul(n1, d2), _mul(d1, n2))
        # a/b +- c/d = (a*d +- c*b)/(b*d), or (a +- c)/b when b = d
        if d1 != d2:
            n1, n2, d1 = _mul(n1, d2), _mul(n2, d1), _mul(d1, d2)
        return (n1 + n2 if op == "+" else n1 - n2), d1


# (num, den, x_divisor), as parse returns it
Lowered = tuple[Polynomial, Polynomial, bool]


def parse(text: str) -> Lowered:
    """Parse and lower an expression to (num, den, x_divisor).

    num/den is the value, unreduced, with den ONE itself or with x in it,
    and x_divisor tells whether any divisor had x in it.  Faults are
    reported in a fixed order: the first syntax error (a ParseError with
    its byte offset), then a LoweringError if the degree of any part may
    exceed MAX_DEGREE, judged before any arithmetic, then one for the first
    division by zero.
    """
    tokens = tokenize(text)
    degrees = _Degrees(tokens)
    degrees.expr()
    trailing = degrees.peek()
    if trailing.kind != "end":
        raise ParseError(trailing.pos, f"unexpected {_describe(trailing)}")
    if degrees.peak > MAX_DEGREE:
        raise LoweringError(f"degree of the result exceeds the limit of {MAX_DEGREE}")
    values = _Values(tokens)
    num, den = values.expr()
    return num, den, values.x_divisor


def lower_poly(e: Lowered) -> Polynomial:
    """The Polynomial a parsed expression denotes.

    Division is allowed only by subexpressions that lower to a nonzero
    constant, which folds into the coefficients.  x in any divisor raises
    LoweringError, even where it cancels as in x/x: such an expression
    belongs to lower_ratfun.
    """
    num, _, x_divisor = e
    if x_divisor:
        raise LoweringError("x in a denominator: not a polynomial")
    return num


def lower_ratfun(e: Lowered) -> RationalFunction:
    """The canonical RationalFunction a parsed expression denotes, reduced once."""
    num, den, _ = e
    return RationalFunction(num, den)
