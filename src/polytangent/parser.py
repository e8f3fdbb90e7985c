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

Fractions such as ``1/2`` parse as ordinary division nodes; lowering
folds division by a constant into the coefficients, so ``1/2*x`` means
(1/2)*x by left associativity, matching the canonical rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
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


# -- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Number:
    value: Fraction


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Number | Var | Neg | Add | Sub | Mul | Div | Pow


# -- lexer ------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "x", one of "+-*/^()", or "end"
    value: Fraction | None
    pos: int


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


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.term()
            node = Add(node, right) if op.kind == "+" else Sub(node, right)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            right = self.unary()
            node = Mul(node, right) if op.kind == "*" else Div(node, right)
        return node

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "num" or tok.value.denominator != 1:
                raise ParseError(tok.pos, "exponent must be a non-negative integer literal")
            if tok.value > MAX_EXPONENT:
                raise ParseError(tok.pos, f"exponent exceeds the limit of {MAX_EXPONENT}")
            self.advance()
            node = Pow(node, int(tok.value))
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Number(tok.value)
        if tok.kind == "x":
            self.advance()
            return Var()
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


def parse(text: str) -> Expr:
    """Parse an expression; raises ParseError with a byte offset on bad input."""
    parser = _Parser(text)
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(trailing.pos, f"unexpected {_describe(trailing)}")
    return node


# -- lowering ------------------------------------------------------------------


def _degree_bound(e: Expr) -> tuple[int, int]:
    """Bounds on the (numerator, denominator) degrees of e once lowered.

    For a polynomial, whose denominator degree is 0, Add/Sub take the
    max of their operands, Mul the sum and Pow the multiple.  Raises
    LoweringError when the bound at any node exceeds MAX_DEGREE, so no
    intermediate result exceeds it either.
    """
    if isinstance(e, Number):
        bound = (0, 0)
    elif isinstance(e, Var):
        bound = (1, 0)
    elif isinstance(e, Neg):
        bound = _degree_bound(e.operand)
    elif isinstance(e, Pow):
        n, d = _degree_bound(e.base)
        bound = (n * e.exponent, d * e.exponent)
    elif isinstance(e, (Add, Sub, Mul, Div)):
        (n1, d1), (n2, d2) = _degree_bound(e.left), _degree_bound(e.right)
        if isinstance(e, Mul):
            bound = (n1 + n2, d1 + d2)
        elif isinstance(e, Div):
            bound = (n1 + d2, d1 + n2)
        else:  # a/b +- c/d = (a*d +- c*b)/(b*d)
            bound = (max(n1 + d2, n2 + d1), d1 + d2)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if max(bound) > MAX_DEGREE:
        raise LoweringError(f"degree of the result exceeds the limit of {MAX_DEGREE}")
    return bound


def _mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b, skipping a unit denominator factor (ONE itself) rather than multiplying by it."""
    return a if b is ONE else b if a is ONE else a * b


def _fold_constant(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(num, den), with a constant den folded into num so that den is ONE or has x."""
    if den.degree:
        return num, den
    scale = den.coeffs[0]
    return (num if scale == 1 else num * (Fraction(1) / scale)), ONE


def _lower(e: Expr, poly: bool) -> tuple[Polynomial, Polynomial]:
    """Fold the tree into an unreduced pair (num, den) whose quotient is e.

    den is ONE itself or has x in it, so a polynomial lowers to (p, ONE).
    With ``poly`` set, a divisor with x in it raises LoweringError.  A
    power reduces its base first: gcd(a, b) = 1 gives gcd(a**n, b**n) = 1.
    """
    if isinstance(e, Number):
        return Polynomial((e.value,)), ONE
    if isinstance(e, Var):
        return X, ONE
    if isinstance(e, Neg):
        num, den = _lower(e.operand, poly)
        return -num, den
    if isinstance(e, Pow):
        num, den = _lower(e.base, poly)
        if den is ONE:
            return num**e.exponent, ONE
        base = RationalFunction(num, den)
        return _fold_constant(base.num**e.exponent, base.den**e.exponent)
    n1, d1 = _lower(e.left, poly)
    n2, d2 = _lower(e.right, poly)
    if isinstance(e, Mul):
        return _mul(n1, n2), _mul(d1, d2)
    if isinstance(e, Div):
        if not n2:
            raise LoweringError("division by zero")
        if poly and n2.degree:
            raise LoweringError("x in a denominator: not a polynomial")
        return _fold_constant(_mul(n1, d2), _mul(d1, n2))
    # a/b +- c/d = (a*d +- c*b)/(b*d), or (a +- c)/b when b = d
    if d1 != d2:
        n1, n2, d1 = _mul(n1, d2), _mul(n2, d1), _mul(d1, d2)
    return (n1 + n2 if isinstance(e, Add) else n1 - n2), d1


def lower_poly(e: Expr) -> Polynomial:
    """Evaluate the tree to an exact Polynomial.

    Division is allowed only by subexpressions that lower to a nonzero
    constant (the constant folds into the coefficients); anything with
    x in a denominator raises LoweringError and belongs to
    lower_ratfun.  A tree whose degree may exceed MAX_DEGREE raises
    LoweringError before any arithmetic.
    """
    _degree_bound(e)
    return _lower(e, poly=True)[0]


def lower_ratfun(e: Expr) -> RationalFunction:
    """Evaluate the tree to a canonical RationalFunction.

    The tree folds into one unreduced numerator and denominator, which
    are reduced once, at the root (and at a power of a base with x in
    its denominator).  Like lower_poly, refuses a tree whose degree may
    exceed MAX_DEGREE, and raises LoweringError on a division by zero.
    """
    _degree_bound(e)
    return RationalFunction(*_lower(e, poly=False))
