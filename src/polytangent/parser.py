"""Operator-precedence parser for polynomial and rational-function expressions.

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
non-negative integers, and the only variable is ``x``.  Parentheses and
unary minus signs nest at most ``MAX_DEPTH`` deep.

No syntax tree is built, and nothing recurses.  The lexer writes each
token as a plain (kind, value, pos) tuple, and an integer literal stays
an ``int`` until the fold needs a value.  One loop with an operator
stack (Dijkstra's shunting yard) checks the syntax and writes the
expression as a flat postfix list.  Two loops over that list follow:
the first bounds every degree without arithmetic, the second folds the
value into an unreduced numerator and denominator.  The fold keeps
three kinds of value.  A monomial c*x^k, a constant being k = 0, is a
pair (c, k), and c stays an ``int`` while only integers have met: the
first quotient of two ints builds the first ``Fraction``, so
``(37/11)`` builds one.  A sum of unlike monomials is a list of
coefficients that each further term updates in one slot.  Any other
value is a pair (num, den) of ``Polynomial``s.  Every coefficient that
reaches a list or a ``Polynomial`` is a ``Fraction``.  A fraction such
as ``1/2`` is an ordinary division, and a constant divisor folds into
the coefficients, so ``1/2*x`` means (1/2)*x by left associativity,
matching the canonical rendering.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .polynomial import ONE, Polynomial, RationalFunction


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

# No polynomial needs deeper nesting than this, so it bounds untrusted
# input like the two above: the first "(" or unary "-" nested deeper is
# a ParseError at its offset.
MAX_DEPTH = 100


class LoweringError(Exception):
    """A well-formed expression that does not denote the requested kind of value."""


# -- lexer ------------------------------------------------------------------


# \d is any Unicode decimal digit, as int and Fraction accept; "1." is malformed.
_TOKEN = re.compile(r"\d+(?:\.\d+|\.)?|\S")


def tokenize(text: str) -> list[tuple]:
    """The tokens of text as plain (kind, value, pos) tuples, ending in ("end", None, len(text)).

    kind is "num", "x" or one of "+-*/^()".  A number's value is an int,
    or a Fraction for a decimal literal (1.25 is 5/4); any other value
    is None.  pos is the token's offset in text.
    """
    tokens: list[tuple] = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        lexeme = m[0]
        if lexeme in "x+-*/^()":
            append((lexeme, None, m.start()))
        elif lexeme.isdecimal():
            append(("num", int(lexeme), m.start()))
        elif lexeme[0].isdecimal():
            if lexeme[-1] == ".":
                raise ParseError(m.end() - 1, "malformed decimal literal")
            append(("num", Fraction(lexeme), m.start()))
        elif lexeme.isalpha():
            raise ParseError(m.start(), f"unknown symbol {lexeme!r}; the only variable is x")
        else:
            raise ParseError(m.start(), f"unexpected character {lexeme!r}")
    append(("end", None, len(text)))
    return tokens


# -- one loop writes postfix code, two loops run it ---------------------------

# How tightly an entry on the operator stack binds; no operator pops a "(".
_BINDS = {"(": 0, "+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}


def _postfix(tokens: list[tuple]) -> list:
    """Check the syntax and write the expression as postfix code.

    In the code, a pair (c, k) pushes the monomial c*x^k, a literal c
    being (c, 0) and x being (1, 1), an int k raises the top value to the
    k-th power, "neg" negates it, and "+", "-", "*" or "/" combines the
    top two.  While an operand is due, "-" and "(" go on the operator
    stack as "neg" and "(", and a number or x is written.  Once it is
    complete, an operator pops the entries that bind at least as tightly,
    and a ")" or the end pops down to the nearest "(".  depth counts the
    "(" and "neg" entries.
    """
    code: list = []
    stack: list[str] = []
    depth = i = 0
    while True:
        kind, value, pos = tokens[i]
        i += 1
        if kind == "-" or kind == "(":
            if depth == MAX_DEPTH:
                raise ParseError(pos, f"nesting exceeds the limit of {MAX_DEPTH}")
            depth += 1
            stack.append("neg" if kind == "-" else "(")
            continue
        if kind != "num" and kind != "x":
            raise ParseError(pos, f"unexpected {_describe(kind)}")
        code.append((value, 0) if kind == "num" else _X)
        while True:  # an operand is complete, and each ")" completes one more
            kind, value, pos = tokens[i]
            if kind == "^":
                kind, value, pos = tokens[i + 1]
                if kind != "num" or value.denominator != 1:
                    raise ParseError(pos, "exponent must be a non-negative integer literal")
                if value > MAX_EXPONENT:
                    raise ParseError(pos, f"exponent exceeds the limit of {MAX_EXPONENT}")
                code.append(int(value))
                i += 2
                kind, value, pos = tokens[i]
            # An operand ends in a number, x or ")", so an x or "(" right
            # after one is an implicit "*": 2x, 2(x+1), (x-2)(x-3).
            op = "*" if kind == "x" or kind == "(" else kind
            binds = _BINDS.get(op, 1)  # any other token pops down to the nearest "("
            while stack and _BINDS[stack[-1]] >= binds:
                top = stack.pop()
                if top == "neg":
                    depth -= 1
                code.append(top)
            if op in _BINDS:  # a binary operator: op is never "(" or "neg" here
                stack.append(op)
                if op == kind:  # not an implicit "*"
                    i += 1
                break
            if not stack:
                if kind != "end":
                    raise ParseError(pos, f"unexpected {_describe(kind)}")
                return code
            if kind != ")":
                raise ParseError(pos, "expected ')'")
            stack.pop()
            depth -= 1
            i += 1


def _describe(kind: str) -> str:
    if kind == "end":
        return "end of input"
    return "number" if kind == "num" else f"token {kind!r}"


def _degree_peak(code: list) -> int:
    """The largest bound on the (numerator, denominator) degrees of any part once lowered.

    The bounds are static: + and - follow a/b +- c/d = (a*d +- c*b)/(b*d),
    * adds and ^ multiplies, whatever cancels in the values.
    """
    stack: list[tuple[int, int]] = []
    peak = 0
    for op in code:
        kind = op.__class__
        if kind is tuple:  # a literal (c, 0) or x, (1, 1)
            n, d = op[1], 0
        elif op == "neg":
            continue
        elif kind is int:
            n, d = stack.pop()
            n, d = n * op, d * op
        else:
            n2, d2 = stack.pop()
            n1, d1 = stack.pop()
            if op == "*":
                n, d = n1 + n2, d1 + d2
            elif op == "/":
                n, d = n1 + d2, d1 + n2
            else:
                n, d = max(n1 + d2, n2 + d1), d1 + d2
        peak = max(peak, n, d)
        stack.append((n, d))
    return peak


def _fold_constant(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(num, den), with a constant den folded into num so that den is ONE or has x."""
    if den.degree:
        return num, den
    scale = den.coeffs[0]
    return (num if scale == 1 else num * (Fraction(1) / scale)), ONE


_ZERO = Fraction(0)
_X = (1, 1)  # x as the monomial (c, k) = (1, 1)


def _frac(c) -> Fraction:
    """A monomial's coefficient, an int or a Fraction, as a Fraction."""
    return c if c.__class__ is Fraction else Fraction(c)


def _pair(value) -> tuple[Polynomial, Polynomial]:
    """A stack value as (num, den): a monomial or a sum's list becomes a Polynomial over ONE."""
    c, k = value
    if k.__class__ is int:
        return Polynomial._trusted([_ZERO] * k + [_frac(c)]), ONE
    if k is None:
        return Polynomial._trusted(c), ONE
    return value


def _add_term(cs: list[Fraction], c, k: int) -> list[Fraction]:
    """cs + c*x^k, in place: cs belongs to one stack value alone."""
    if k >= len(cs):
        cs += [_ZERO] * (k + 1 - len(cs))
    cs[k] = cs[k] + c if cs[k] else _frac(c)
    return cs


# (num, den, x_divisor), as parse returns it
Lowered = tuple[Polynomial, Polynomial, bool]


def _fold(code: list) -> Lowered:
    """Run the postfix code on three kinds of value, told apart by the class of their second entry.

    A monomial is (c, k) with k an int.  Its c stays an int while only
    integers have met, so ``x^k`` raises 1 to k on ints and ``c*x^k``
    multiplies nothing: a product with a unit factor is the other
    factor.  The first quotient of ints makes a Fraction, and a c that
    leaves the fold becomes one.  Products, powers and negations of
    monomials, quotients by a constant and sums of like monomials stay
    monomials.  A sum of unlike ones, or a monomial added to (p, ONE),
    makes (cs, None): a list of Fraction coefficients that belongs to
    that value alone, so each further term changes one slot in place and
    a dense sum copies no coefficients.  Anything else is a quotient
    (num, den) of Polynomials, and any other operation lowers its
    operands through _pair first.  num/den is unreduced, and den is ONE
    itself or has x in it, so a polynomial folds to (p, ONE).  A power
    reduces its base first: gcd(a, b) = 1 gives gcd(a**n, b**n) = 1.
    """
    stack: list = []
    x_divisor = False
    for op in code:
        kind = op.__class__
        if kind is tuple:
            stack.append(op)
        elif kind is int:
            a, b = stack.pop()
            if b.__class__ is int:
                stack.append((a**op, b * op))
                continue
            a, b = _pair((a, b))
            if b is ONE:
                stack.append((a**op, ONE))
            else:
                base = RationalFunction(a, b)
                stack.append(_fold_constant(base.num**op, base.den**op))
        elif op == "neg":
            a, b = stack.pop()
            stack.append(([-c for c in a], None) if b is None else (-a, b))
        else:
            b, a = stack.pop(), stack.pop()
            (c1, k1), (c2, k2) = a, b  # (c, k) of a monomial, (cs, None) or (num, den)
            if k2.__class__ is int:  # b is the monomial c2*x^k2
                if op == "+" or op == "-":
                    if op == "-":
                        c2 = -c2
                    if k1 is None:
                        stack.append((_add_term(c1, c2, k2), None))
                        continue
                    if k1 is ONE:
                        stack.append((_add_term(list(c1.coeffs), c2, k2), None))
                        continue
                    if k1.__class__ is int:
                        if k1 == k2:
                            stack.append((c1 + c2, k1))
                        else:
                            stack.append((_add_term(_add_term([], c1, k1), c2, k2), None))
                        continue
                elif k1.__class__ is int:
                    if op == "*":
                        stack.append((c1 if c2 == 1 else c2 if c1 == 1 else c1 * c2, k1 + k2))
                        continue
                    if not k2:  # a quotient by a constant
                        if not c2:
                            raise LoweringError("division by zero")
                        stack.append((Fraction(c1, c2), k1))
                        continue
            (n1, d1), (n2, d2) = _pair(a), _pair(b)
            if op == "*":
                stack.append((n1 * n2, d1 * d2))
            elif op == "/":
                if not n2:
                    raise LoweringError("division by zero")
                x_divisor = x_divisor or bool(n2.degree)
                stack.append(_fold_constant(n1 * d2, d1 * n2))
            else:  # a/b +- c/d = (a*d +- c*b)/(b*d), or (a +- c)/b when b = d
                if d1 != d2:
                    n1, n2, d1 = n1 * d2, n2 * d1, d1 * d2
                stack.append((n1 + n2 if op == "+" else n1 - n2, d1))
    num, den = _pair(stack.pop())
    return num, den, x_divisor


def parse(text: str) -> Lowered:
    """Parse and lower an expression to (num, den, x_divisor).

    num/den is the value, unreduced, with den ONE itself or with x in it,
    and x_divisor tells whether any divisor had x in it.  Faults are
    reported in a fixed order: the first syntax error (a ParseError with
    its byte offset), then a LoweringError if the degree of any part may
    exceed MAX_DEGREE, judged before any arithmetic, then one for the first
    division by zero.
    """
    code = _postfix(tokenize(text))
    if _degree_peak(code) > MAX_DEGREE:
        raise LoweringError(f"degree of the result exceeds the limit of {MAX_DEGREE}")
    return _fold(code)


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
