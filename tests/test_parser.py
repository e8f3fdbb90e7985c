"""Expression parsing, lowering, and the render round trip."""

import re
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polytangent.parser import (
    MAX_DEGREE, MAX_DEPTH, LoweringError, ParseError, lower_poly, lower_ratfun, parse,
)
from polytangent.polynomial import ONE, X, Polynomial, RationalFunction
from support import assert_well_formed, monomial_sum, monomial_terms

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
polys = st.builds(Polynomial, st.lists(coeffs, max_size=11))
small_polys = st.builds(Polynomial, st.lists(coeffs, max_size=6))
ratfuns = st.builds(RationalFunction, small_polys, small_polys.filter(bool))

# Expressions whose factors may be juxtaposed, as in 2x, x(x+1) or (x-1)(x+2);
# many are malformed, such as "2 3" or "x^2^2".
juxtaposed = st.recursive(
    st.sampled_from(["x", "2", "0.5", "13", "-x", "-3", "0"]),
    lambda inner: st.one_of(
        st.builds("({})".format, inner),
        st.builds("{}^{}".format, inner, st.integers(0, 3)),
        st.builds("{}{}{}".format, inner, st.sampled_from(["", "", " ", *"*/-+"]), inner),
    ),
    max_leaves=8,
)

# (text, exception type, str(exception)) for lower_poly(parse(text)), one
# group per kind of message, in the order the faults are reported.
FAULTS = [
    # unexpected character
    ("x$2", ParseError, "unexpected character '$' (at offset 1)"),
    ("x²", ParseError, "unexpected character '²' (at offset 1)"),
    ("2 + ①", ParseError, "unexpected character '①' (at offset 4)"),
    ("x & 1", ParseError, "unexpected character '&' (at offset 2)"),
    ("x = 1", ParseError, "unexpected character '=' (at offset 2)"),
    ("3,5", ParseError, "unexpected character ',' (at offset 1)"),
    ("x·2", ParseError, "unexpected character '·' (at offset 1)"),
    ("1_000x", ParseError, "unexpected character '_' (at offset 1)"),
    # unknown symbol
    ("y + 1", ParseError, "unknown symbol 'y'; the only variable is x (at offset 0)"),
    ("sin(x)", ParseError, "unknown symbol 's'; the only variable is x (at offset 0)"),
    ("X^2", ParseError, "unknown symbol 'X'; the only variable is x (at offset 0)"),
    ("2é", ParseError, "unknown symbol 'é'; the only variable is x (at offset 1)"),
    ("1.5e3x", ParseError, "unknown symbol 'e'; the only variable is x (at offset 3)"),
    # malformed decimal literal
    ("1.", ParseError, "malformed decimal literal (at offset 1)"),
    ("1.x", ParseError, "malformed decimal literal (at offset 1)"),
    ("3. + x", ParseError, "malformed decimal literal (at offset 1)"),
    # unexpected token
    ("x + * 2", ParseError, "unexpected token '*' (at offset 4)"),
    ("x )", ParseError, "unexpected token ')' (at offset 2)"),
    ("*x", ParseError, "unexpected token '*' (at offset 0)"),
    (")", ParseError, "unexpected token ')' (at offset 0)"),
    ("()", ParseError, "unexpected token ')' (at offset 1)"),
    ("x + + 1", ParseError, "unexpected token '+' (at offset 4)"),
    ("(x+1))", ParseError, "unexpected token ')' (at offset 5)"),
    ("x^2 ^ 3", ParseError, "unexpected token '^' (at offset 4)"),
    # unexpected number
    ("2 3", ParseError, "unexpected number (at offset 2)"),
    ("x 2", ParseError, "unexpected number (at offset 2)"),
    ("(x)2", ParseError, "unexpected number (at offset 3)"),
    ("x^2 3", ParseError, "unexpected number (at offset 4)"),
    ("2.5 7", ParseError, "unexpected number (at offset 4)"),
    # unexpected end of input
    ("", ParseError, "unexpected end of input (at offset 0)"),
    ("   ", ParseError, "unexpected end of input (at offset 3)"),
    ("x +", ParseError, "unexpected end of input (at offset 3)"),
    ("(", ParseError, "unexpected end of input (at offset 1)"),
    ("-", ParseError, "unexpected end of input (at offset 1)"),
    ("x*", ParseError, "unexpected end of input (at offset 2)"),
    ("x/", ParseError, "unexpected end of input (at offset 2)"),
    ("2(", ParseError, "unexpected end of input (at offset 2)"),
    # expected ')'
    ("(x+1", ParseError, "expected ')' (at offset 4)"),
    ("((x)", ParseError, "expected ')' (at offset 4)"),
    ("(1 2)", ParseError, "expected ')' (at offset 3)"),
    ("(x^2 3", ParseError, "expected ')' (at offset 5)"),
    # an exponent that is no non-negative integer literal
    ("x^(-1)", ParseError, "exponent must be a non-negative integer literal (at offset 2)"),
    ("x^-1", ParseError, "exponent must be a non-negative integer literal (at offset 2)"),
    ("x^1.5", ParseError, "exponent must be a non-negative integer literal (at offset 2)"),
    ("x^x", ParseError, "exponent must be a non-negative integer literal (at offset 2)"),
    ("x^", ParseError, "exponent must be a non-negative integer literal (at offset 2)"),
    ("2^0.5", ParseError, "exponent must be a non-negative integer literal (at offset 2)"),
    # an exponent over MAX_EXPONENT
    ("x^1025", ParseError, "exponent exceeds the limit of 1024 (at offset 2)"),
    ("2^99999999", ParseError, "exponent exceeds the limit of 1024 (at offset 2)"),
    ("(x+1)^2000", ParseError, "exponent exceeds the limit of 1024 (at offset 6)"),
    ("x^0001025", ParseError, "exponent exceeds the limit of 1024 (at offset 2)"),
    ("x^١٠٢٥", ParseError, "exponent exceeds the limit of 1024 (at offset 2)"),
    # a degree over MAX_DEGREE
    ("x*(x+1)^1024", LoweringError, "degree of the result exceeds the limit of 1024"),
    ("((x+1)^8)^300", LoweringError, "degree of the result exceeds the limit of 1024"),
    ("1/x^600 + 1/x^600", LoweringError, "degree of the result exceeds the limit of 1024"),
    ("x^1024*x", LoweringError, "degree of the result exceeds the limit of 1024"),
    ("1/0 + x^1024*x", LoweringError, "degree of the result exceeds the limit of 1024"),
    # division by zero
    ("x/0", LoweringError, "division by zero"),
    ("1/(x-x)", LoweringError, "division by zero"),
    ("x/(2-2)", LoweringError, "division by zero"),
    ("1/x + 1/0", LoweringError, "division by zero"),
    ("(1/0)^0", LoweringError, "division by zero"),
    ("1/0.0", LoweringError, "division by zero"),
    # x in a denominator, raised by lower_poly
    ("1/x", LoweringError, "x in a denominator: not a polynomial"),
    ("(1/x)*x", LoweringError, "x in a denominator: not a polynomial"),
    ("x/x", LoweringError, "x in a denominator: not a polynomial"),
    ("1/(x+1)", LoweringError, "x in a denominator: not a polynomial"),
    ("x + 2/(x^2 - 1)", LoweringError, "x in a denominator: not a polynomial"),
]


def explicit(text: str) -> str:
    """text with a "*" written out wherever a number, x or ")" meets an x or "("."""
    return re.sub(r"([\dx)])(?=\s*[x(])", r"\1*", text)


def python_value(text: str, x: Fraction) -> Fraction:
    """Python's own value of text at x: "^" as "**", every literal a Fraction."""
    code = re.sub(r"\d+(?:\.\d+)?", r"Fraction('\g<0>')", explicit(text).replace("^", "**"))
    return eval(code, {"Fraction": Fraction, "x": x})


def cross_multiplied(r: RationalFunction, op: str, s: RationalFunction) -> RationalFunction:
    """r op s from one cross multiplication of the canonical pairs."""
    a, b, c, d = r.num, r.den, s.num, s.den
    if op == "*":
        return RationalFunction(a * c, b * d)
    if op == "/":
        return RationalFunction(a * d, b * c)
    return RationalFunction(a * d + c * b if op == "+" else a * d - c * b, b * d)


class TestParse:
    def test_quadratic(self):
        assert lower_poly(parse("x^2 - 5*x + 6")) == X**2 - 5 * X + 6

    def test_fraction_literal_stays_division_until_lowering(self):
        assert lower_poly(parse("3/4")) == Polynomial([Fraction(3, 4)])

    def test_whitespace_insensitive(self):
        assert lower_poly(parse(" x ^2-5 * x+ 6 ")) == X**2 - 5 * X + 6

    def test_precedence(self):
        assert lower_poly(parse("1+2*x^2")) == 2 * X**2 + 1
        assert lower_poly(parse("(1+2)*x^2")) == 3 * X**2
        assert lower_poly(parse("1/2*x")) == Fraction(1, 2) * X

    def test_unary_minus(self):
        assert lower_poly(parse("-x^2")) == -(X**2)
        assert lower_poly(parse("-x + 3")) == -X + 3
        assert lower_poly(parse("--x")) == X
        assert lower_poly(parse("-7/2*x^3")) == Fraction(-7, 2) * X**3

    def test_implicit_multiplication(self):
        assert lower_poly(parse("2x")) == 2 * X
        assert lower_poly(parse("3x^2")) == 3 * X**2
        assert lower_poly(parse("2(x+1)")) == 2 * X + 2
        assert lower_poly(parse("(x-2)(x-3)")) == X**2 - 5 * X + 6
        assert lower_poly(parse("x(x+1)")) == X**2 + X

    def test_implicit_multiplication_binds_like_an_explicit_one(self):
        assert lower_poly(parse("2x^2")) == 2 * X**2
        assert lower_poly(parse("1/2x")) == Fraction(1, 2) * X
        assert lower_poly(parse("x^2(x+1)")) == X**3 + X**2
        assert lower_poly(parse("-2x")) == -2 * X

    @given(juxtaposed)
    @example("(x-1) (x+2)x^2 / 2(x+1)")
    def test_writing_out_implicit_multiplication_changes_nothing(self, text):
        try:
            expected = parse(explicit(text))
        except (ParseError, LoweringError) as exc:
            with pytest.raises(type(exc)):
                parse(text)
        else:
            assert parse(text) == expected

    def test_decimal_literals_convert_exactly(self):
        assert lower_poly(parse("0.5*x")) == Fraction(1, 2) * X
        assert lower_poly(parse("1.25")) == Polynomial([Fraction(5, 4)])
        assert lower_poly(parse("2.50")) == Polynomial([Fraction(5, 2)])

    @pytest.mark.parametrize(
        "text,value",
        [
            ("١٢x", 12 * X),  # Arabic-Indic digits, as int and Fraction read them
            ("x^١٢", X**12),
            ("٣.٥", Polynomial([Fraction(7, 2)])),
            ("00012x", 12 * X),
            ("x^01", X),
            ("x^0001024", X**1024),
            ("x^2.0", X**2),  # an integer-valued decimal exponent
            ("(3/4)^2.00x", Fraction(9, 16) * X),
        ],
    )
    def test_literal_forms(self, text, value):
        num, den, x_divisor = parse(text)
        assert_well_formed(num)
        assert (num, den, x_divisor) == (value, ONE, False)


    @given(juxtaposed)
    @example("(x^2 - 1)/(x - 1)")
    @example("1/(0.5 - x)^2 - 3")
    def test_fold_matches_python_arithmetic(self, text):
        try:
            lowered = parse(text)
        except (ParseError, LoweringError):
            return
        num, den, x_divisor = lowered
        assert_well_formed(num)
        assert_well_formed(den)
        r = lower_ratfun(lowered)
        for x in (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7, 5)):
            at_x = r.den(x)
            try:
                expected = python_value(text, x)
            except ZeroDivisionError:
                continue
            if at_x:
                assert r.num(x) / at_x == expected
        if "x" not in text:
            assert num == Polynomial((python_value(text, None),))
            assert den is ONE and x_divisor is False


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,position",
        [
            ("x^(-1)", 2),
            ("x^-1", 2),
            ("x^1.5", 2),
            ("(x+1", 4),
            ("x$2", 1),
            ("y + 1", 0),
            ("x + * 2", 4),
            ("", 0),
            ("x )", 2),
            ("1.", 1),
            ("1.x", 1),
            ("2 + ①", 4),  # str.isdigit accepts it, but it is no decimal digit
        ],
    )
    def test_positioned_errors(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position
        assert 0 <= err.value.position <= len(text)
        assert str(err.value)

    @pytest.mark.parametrize("text,kind,message", FAULTS)
    def test_exact_message(self, text, kind, message):
        with pytest.raises((ParseError, LoweringError)) as err:
            lower_poly(parse(text))
        assert (type(err.value), str(err.value)) == (kind, message)

    def test_superscript_digit_is_an_unexpected_character(self):
        with pytest.raises(ParseError, match=r"^unexpected character '²' \(at offset 1\)$"):
            parse("x²")


class TestLowerPoly:
    def test_expansion(self):
        assert lower_poly(parse("(x-2)*(x-3)")) == X**2 - 5 * X + 6

    def test_constant_denominator_folds(self):
        assert lower_poly(parse("x/2")) == Fraction(1, 2) * X

    def test_x_in_denominator_rejected(self):
        with pytest.raises(LoweringError):
            lower_poly(parse("1/x"))
        with pytest.raises(LoweringError):
            lower_poly(parse("(1/x)*x"))

    def test_division_by_zero_rejected(self):
        with pytest.raises(LoweringError):
            lower_poly(parse("x/0"))
        with pytest.raises(LoweringError):
            lower_poly(parse("x/(2-2)"))

    def test_denominator_that_simplifies_to_a_constant(self):
        assert lower_poly(parse("x/(x - x + 2)")) == Fraction(1, 2) * X


class TestLowerRatfun:
    def test_reciprocal(self):
        assert lower_ratfun(parse("1/x")) == RationalFunction(ONE, X)

    def test_canonical_reduction(self):
        assert lower_ratfun(parse("(x^2-1)/(x-1)")) == RationalFunction(X + 1)
        # the base of a power is reduced before it is raised
        assert lower_ratfun(parse("((x^2-1)/(x-1))^300")) == RationalFunction((X + 1) ** 300)

    def test_division_by_zero(self):
        with pytest.raises(LoweringError):
            lower_ratfun(parse("x/0"))
        with pytest.raises(LoweringError):
            lower_ratfun(parse("1/(x - x)"))

    def test_field_arithmetic(self):
        assert lower_ratfun(parse("1/x + 1/x")) == RationalFunction(Polynomial([2]), X)
        assert lower_ratfun(parse("(1/x)*x")) == RationalFunction(ONE)

    @given(ratfuns, st.sampled_from("+-*/"), ratfuns)
    @example(RationalFunction(ONE, X), "/", RationalFunction(Polynomial()))
    @example(RationalFunction(ONE, X), "-", RationalFunction(ONE, X))
    def test_ring_operations_match_cross_multiplication(self, r, op, s):
        text = f"({r}) {op} ({s})"
        if op == "/" and not s.num:
            with pytest.raises(LoweringError, match="division by zero"):
                parse(text)
        else:
            assert lower_ratfun(parse(text)) == cross_multiplied(r, op, s)


class TestDegreeBound:
    def test_at_the_bound_lowers(self):
        assert lower_poly(parse("(x+1)^1024")).degree == MAX_DEGREE
        assert lower_ratfun(parse("x^1024/(x^512*x^512 + 1)")).num == X**MAX_DEGREE

    @pytest.mark.parametrize(
        "text",
        [
            "x*(x+1)^1024",
            "((x+1)^8)^300",
            "((x+1)^1024)^1024",
            "(x^1024*x)^0",  # an intermediate over the bound
            # the bounds are static: cancellation and equal denominators do not shrink them
            "(x^1024 - x^1024 + x)^2",
            "1/x^600 + 1/x^600",
            "((x^4-1)/(x-1))^300",
        ],
    )
    def test_over_the_bound_rejected(self, text):
        for lower in (lower_poly, lower_ratfun):
            with pytest.raises(LoweringError, match=str(MAX_DEGREE)):
                lower(parse(text))

    @pytest.fixture
    def calls(self, monkeypatch):
        """The names of the Polynomial.__mul__ and __pow__ calls made, in order."""
        calls = []

        def counted(method):
            def wrapper(*args):
                calls.append(method.__name__)
                return method(*args)

            return wrapper

        for name in ("__mul__", "__pow__"):
            monkeypatch.setattr(Polynomial, name, counted(getattr(Polynomial, name)))
        return calls

    def test_refused_before_any_arithmetic(self, calls):
        assert lower_poly(parse("x*(x+1)^8")).degree == 9
        assert calls
        calls.clear()
        with pytest.raises(LoweringError, match=str(MAX_DEGREE)):
            parse("x*(x+1)^1024")
        assert calls == []

    def test_monomial_power_makes_no_product(self, calls):
        assert lower_poly(parse("x^1024")).coeffs == (0,) * 1024 + (1,)
        assert calls == []  # a monomial power stays the pair (1, 1024)

    def test_binomial_power_makes_no_product(self, calls):
        assert lower_poly(parse("(x+1)^1024")).coefficient(512) == comb(1024, 512)
        assert calls == ["__pow__"]

    def test_three_term_power_makes_no_product(self, calls):
        f = lower_poly(parse("(x^2+x+1)^500"))
        assert (f.degree, f.coefficient(1), f.coefficient(2)) == (1000, 500, comb(500, 2) + 500)
        assert calls == ["__pow__"]  # x^2 stays a pair: only the 500th power

    def test_sum_of_fractions_adds_denominator_degrees(self):
        assert lower_poly(parse("x^1000 + x^1024")).degree == 1024
        with pytest.raises(LoweringError, match=str(MAX_DEGREE)):
            lower_ratfun(parse("1/x^600 + 1/(x+1)^600"))


class TestMonomialFold:
    """A sum of monomials, each term folded as a (c, k) pair, against a Fraction-only reference."""

    @given(st.lists(st.tuples(st.sampled_from("+-"), monomial_terms()), min_size=1, max_size=30))
    def test_sum_matches_the_reference(self, terms):
        # a leading "-" negates the first term as a unary minus; a leading "+" is dropped
        text = " ".join(f"{sign} {term}" for sign, (term, _, _) in terms).removeprefix("+ ")
        pairs = [(c if sign == "+" else -c, k) for sign, (_, c, k) in terms]
        num, den, x_divisor = parse(text)
        assert_well_formed(num)
        assert num.coeffs == monomial_sum(pairs)
        assert den is ONE and x_divisor is False

    @pytest.mark.parametrize(
        "text,pairs",
        [
            ("x^3 - x^3", [(1, 3), (-1, 3)]),
            ("x^5 + 1 - x^5", [(1, 5), (1, 0), (-1, 5)]),
            ("2x*3x^2", [(6, 3)]),
            ("(2x^2)^3", [(8, 6)]),
            ("(x)^0", [(1, 0)]),
            ("(0x)^0", [(1, 0)]),
            ("x^3/(2/3)", [(Fraction(3, 2), 3)]),
            ("-x^2 - -3x", [(-1, 2), (3, 1)]),
            ("1 + x^4 + 0x^9 + 2 + 3x", [(1, 0), (1, 4), (2, 0), (3, 1)]),
            ("0*x^7", []),
            ("(x^2 + x + 1) - x^2 + 5x^3", [(1, 1), (1, 0), (5, 3)]),
            ("4 + (x + 1)^2", [(5, 0), (2, 1), (1, 2)]),
            # unit factors, int literals and int quotients: every coefficient leaves as a Fraction
            ("1*x", [(1, 1)]),
            ("x*1", [(1, 1)]),
            ("1x^3", [(1, 3)]),
            ("(1)^7x", [(1, 1)]),
            ("2.0x", [(2, 1)]),
            ("3*x^0", [(3, 0)]),
            ("(1/2)*2x", [(1, 1)]),
            ("(4/2)x", [(2, 1)]),
        ],
    )
    def test_known_sums(self, text, pairs):
        num, den, x_divisor = parse(text)
        assert_well_formed(num)
        assert num.coeffs == monomial_sum([(Fraction(c), k) for c, k in pairs])
        assert den is ONE and x_divisor is False

    def test_monomial_divisors_keep_their_fault_and_flag(self):
        assert parse("x/x") == (X, X, True)
        assert parse("2x^3/(4x)") == (2 * X**3, 4 * X, True)
        assert parse("x^3/(2x^0)") == (Fraction(1, 2) * X**3, ONE, False)
        for text in ("1/(0*x)", "x^2/(x - x)", "1/(0x^3)^2", "x/(0x + 0)"):
            with pytest.raises(LoweringError, match="^division by zero$"):
                parse(text)


class TestNestingBound:
    def test_at_the_bound_lowers(self):
        assert lower_poly(parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH)) == X
        assert lower_poly(parse("x+" + "-" * MAX_DEPTH + "x")) == 2 * X

    @pytest.mark.parametrize(
        "text,position",
        [
            ("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), MAX_DEPTH),
            ("(" * 10_000 + "x" + ")" * 10_000, MAX_DEPTH),
            ("-" * 10_000 + "x", MAX_DEPTH),
            ("x+" + "-" * 3_000, 2 + MAX_DEPTH),
            ("-(" * 5_000 + "x" + ")" * 5_000, MAX_DEPTH),
        ],
    )
    def test_over_the_bound_is_a_positioned_syntax_error(self, text, position):
        with pytest.raises(ParseError, match=f"^nesting exceeds the limit of {MAX_DEPTH} ") as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text",
        [
            "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
            "-" * MAX_DEPTH + "x",
            "-(" * (MAX_DEPTH // 2) + "x" + ")" * (MAX_DEPTH // 2),
        ],
    )
    def test_parsing_does_not_recurse(self, text):
        # 50 frames are enough for parse's own calls, too few for a frame per "(" or "-"
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            value = lower_poly(parse(text))
        finally:
            sys.setrecursionlimit(limit)
        assert value == X

    def test_an_earlier_syntax_error_comes_first(self):
        with pytest.raises(ParseError, match="unexpected token"):
            parse("x ** " + "(" * 10_000 + "x")


class TestFaultOrder:
    """Syntax first, then degree, then division by zero, then x in a denominator."""

    def test_syntax_before_degree(self):
        with pytest.raises(ParseError):
            parse("x^1024*x + (")

    def test_degree_before_division_by_zero(self):
        with pytest.raises(LoweringError, match=str(MAX_DEGREE)):
            parse("1/0 + x^1024*x")

    def test_division_by_zero_before_x_in_a_denominator(self):
        # the x divisor comes first in the text, yet the zero divisor is reported
        with pytest.raises(LoweringError, match="division by zero"):
            lower_poly(parse("1/x + 1/0"))

    def test_x_in_a_denominator_is_a_flag(self):
        num, den, x_divisor = parse("x/x")
        assert x_divisor and (num, den) == (X, X)
        with pytest.raises(LoweringError, match="x in a denominator"):
            lower_poly((num, den, x_divisor))
        assert lower_ratfun((num, den, x_divisor)) == RationalFunction(ONE)


class TestRender:
    @pytest.mark.parametrize(
        "poly,text",
        [
            (X**2 - 5 * X + 6, "x^2 - 5*x + 6"),
            (Polynomial(), "0"),
            (Fraction(1, 2) * X**3 - X, "1/2*x^3 - x"),
        ],
    )
    def test_examples(self, poly, text):
        assert str(poly) == text

    def test_ratfun(self):
        assert str(RationalFunction(Polynomial([-1]), X**2)) == "-1/x^2"

    @given(polys)
    def test_round_trip(self, f):
        assert lower_poly(parse(str(f))) == f

    @given(st.builds(RationalFunction, polys, polys.filter(bool)))
    def test_ratfun_round_trip(self, r):
        assert lower_ratfun(parse(str(r))) == r
