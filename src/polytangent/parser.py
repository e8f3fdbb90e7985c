"""Recursive-descent parser for polynomial and rational-function expressions.

Grammar (loosest to tightest binding):

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/")? unary)*   (no operator: next is "x" or "(")
    unary  := "-" unary | power
    power  := atom ("^" nonneg_int)?
    atom   := number | "x" | "(" expr ")"
    number := int | decimal

Whitespace between tokens is ignored.  Decimal literals convert exactly
(1.25 becomes 5/4).  Implicit multiplication like ``2x``, ``2(x+1)`` or
``(x-2)(x-3)`` is read by the grammar, not inserted by the lexer: in a
term, an ``x`` or ``(`` right after a unary is a ``*``, so it binds like
an explicit one (``1/2x`` is x/2).  Exponents must be literal
non-negative integers, and the only variable is ``x``.

No syntax tree is built.  The grammar is one recursive descent that
folds each production as it reads it, and ``parse`` runs it twice over
the tokens: once to check the syntax and bound every degree without
arithmetic, then once to fold the value into an unreduced numerator and
denominator.  A fraction such as ``1/2`` is an ordinary division, and a
constant divisor folds into the coefficients, so ``1/2*x`` means
(1/2)*x by left associativity, matching the canonical rendering.
"""

from __future__ import annotations

import re
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


# \d is any Unicode decimal digit, as Fraction accepts; "1." is malformed.
_TOKEN = re.compile(r"\d+(?:\.\d+|\.)?|\S")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN.finditer(text):
        lexeme, pos = m.group(), m.start()
        if lexeme[0].isdecimal():
            if lexeme[-1] == ".":
                raise ParseError(m.end() - 1, "malformed decimal literal")
            tokens.append(Token("num", Fraction(lexeme), pos))
        elif lexeme in "x+-*/^()":
            tokens.append(Token(lexeme, None, pos))
        elif lexeme.isalpha():
            raise ParseError(pos, f"unknown symbol {lexeme!r}; the only variable is x")
        else:
            raise ParseError(pos, f"unexpected character {lexeme!r}")
    tokens.append(Token("end", None, len(text)))
    return tokens


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
        # A unary ends in a number, x or ")", so an x or "(" right after one
        # is an implicit "*": 2x, 2(x+1), (x-2)(x-3).
        acc = self.unary()
        while (kind := self.peek().kind) in ("*", "/", "x", "("):
            if kind in ("*", "/"):
                self.advance()
            acc = self.binary("/" if kind == "/" else "*", acc, self.unary())
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
            return n1 * n2, d1 * d2
        if op == "/":
            if not n2:
                raise LoweringError("division by zero")
            if n2.degree:
                self.x_divisor = True
            return _fold_constant(n1 * d2, d1 * n2)
        # a/b +- c/d = (a*d +- c*b)/(b*d), or (a +- c)/b when b = d
        if d1 != d2:
            n1, n2, d1 = n1 * d2, n2 * d1, d1 * d2
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
