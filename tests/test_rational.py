"""The exact rational scalar layer: canonical form, parsing, field laws."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytangent.rational import to_decimal

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


class TestCanonicalForm:
    def test_reduction(self):
        assert Fraction(2, 6) == Fraction(1, 3)
        assert Fraction(2, 6).numerator == 1
        assert Fraction(2, 6).denominator == 3

    def test_sign_lives_on_numerator(self):
        q = Fraction(1, -2)
        assert q.numerator == -1
        assert q.denominator == 2

    def test_zero_is_zero_over_one(self):
        q = Fraction(0, 7)
        assert (q.numerator, q.denominator) == (0, 1)

    @given(rationals)
    def test_renormalizing_is_identity(self, q):
        assert Fraction(q.numerator, q.denominator) == q
        assert Fraction(q) == q


class TestArithmetic:
    def test_add(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
        assert Fraction(0) + Fraction(-7, 4) == Fraction(-7, 4)
        assert Fraction(2, 6) + Fraction(1, 6) == Fraction(1, 2)

    def test_mul(self):
        assert Fraction(2, 3) * Fraction(3, 4) == Fraction(1, 2)
        assert Fraction(-1, 2) * Fraction(-1, 2) == Fraction(1, 4)

    def test_div(self):
        assert Fraction(1, 2) / Fraction(1, 4) == 2
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 0)

    @given(rationals, rationals, rationals)
    def test_field_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=-10**6, max_value=10**6).filter(bool),
    )
    def test_construction_round_trip(self, n, d):
        assert Fraction(n, d) * d == n


class TestText:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", Fraction(3)),
            ("-7", Fraction(-7)),
            ("3/4", Fraction(3, 4)),
            ("-7/4", Fraction(-7, 4)),
            ("1.25", Fraction(5, 4)),
            ("0.1", Fraction(1, 10)),
            (" 2/4 ", Fraction(1, 2)),
        ],
    )
    def test_parse(self, text, expected):
        assert Fraction(text) == expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Fraction("3//4")

    @given(rationals)
    def test_render_round_trip(self, q):
        assert Fraction(str(q)) == q

    def test_render_forms(self):
        assert str(Fraction(5)) == "5"
        assert str(Fraction(-7, 4)) == "-7/4"
        assert str(Fraction(0)) == "0"


class TestConversions:
    def test_float_is_nearest(self):
        assert float(Fraction(1, 2)) == 0.5
        assert float(Fraction(1, 3)) == 1 / 3

    def test_decimal_rendering(self):
        assert to_decimal(Fraction(61, 10)) == "6.1"
        assert to_decimal(Fraction(1, 3)) == "0.333333333333"
        assert to_decimal(Fraction(1, 10**6)) == "0.000001"
        assert to_decimal(Fraction(-1, 8)) == "-0.125"
