"""The double-root tangency criterion and the derivative built on it."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from polytangent.polynomial import (
    ONE,
    X,
    ZERO,
    Polynomial,
    RationalFunction,
    polynomial_gcd,
)
from polytangent.tangency import (
    INFINITE,
    CertificateError,
    derivative,
    intersection_multiplicity,
    is_tangent,
    ratfun_derivative,
    tangent_at,
    taylor_shift,
)
from support import (
    binomial_shift,
    certificate_holds,
    expansion_tangent,
    power_rule_derivative,
    rand_polynomial,
    rand_rational,
    sparse_polys,
)

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
polys = st.builds(Polynomial, st.lists(coeffs, max_size=9))
points = st.fractions(min_value=-9, max_value=9, max_denominator=9)
small_factors = st.builds(Polynomial, st.lists(coeffs, min_size=1, max_size=3)).filter(bool)
_rng = random.Random(128)
DENSE_128 = Polynomial([rand_rational(_rng) for _ in range(128)] + [1])


class TestTaylorShift:
    def test_square_about_three(self):
        assert taylor_shift(X**2, 3).coeffs == (9, 6, 1)

    def test_constant(self):
        assert taylor_shift(Polynomial([Fraction(5, 3)]), 11).coeffs == (Fraction(5, 3),)

    def test_cube_about_one(self):
        assert taylor_shift(X**3, 1).coeffs == (1, 3, 3, 1)

    def test_zero_polynomial(self):
        e = taylor_shift(ZERO, 2)
        assert e.coeffs == ()
        assert e.coefficient(0) == 0
        assert e.coefficient(1) == 0

    @given(polys, points)
    def test_matches_binomial_expansion(self, f, p):
        assert taylor_shift(f, p).coeffs == binomial_shift(f, p)

    @given(polys, points)
    def test_constant_term_is_the_value(self, f, p):
        e = taylor_shift(f, p)
        assert e.coefficient(0) == f(p)
        if f:
            assert len(e.coeffs) == f.degree + 1

    @given(polys, points)
    def test_round_trip_about_negated_center(self, f, p):
        e = taylor_shift(f, p)
        assert taylor_shift(Polynomial(e.coeffs), -p).coeffs == f.coeffs


class TestIntersectionMultiplicity:
    def test_double_root(self):
        assert intersection_multiplicity(X**2, Polynomial((-9, 6)), 3) == 2

    def test_simple_root(self):
        assert intersection_multiplicity(X**2, Polynomial((-6, 5)), 3) == 1

    def test_coincident_line(self):
        assert intersection_multiplicity(X + 1, Polynomial((1, 1)), 0) == INFINITE

    def test_missing_the_point(self):
        assert intersection_multiplicity(X**2, Polynomial((0, 0)), 3) == 0

    def test_higher_multiplicity(self):
        assert intersection_multiplicity(X**3, Polynomial((0, 0)), 0) == 3

    def test_curve_against_curve(self):
        """g need not be a line: x^3 + x^2 meets x^2 with order 3 at 0."""
        assert intersection_multiplicity(X**3 + X**2, X**2, 0) == 3

    def test_curve_against_itself(self):
        f = X**3 - 2 * X + Fraction(1, 3)
        assert intersection_multiplicity(f, f, Fraction(-5, 7)) == INFINITE

    @given(st.one_of(polys, sparse_polys), points, st.integers(0, 5), coeffs, coeffs)
    @example(ONE, Fraction(0), 0, Fraction(0), Fraction(0))
    @example(X - 3, Fraction(1, 3), 5, Fraction(-2), Fraction(7, 2))
    def test_constructed_multiplicity(self, g, p, m, k, b):
        """f = (x - p)**m * g + (k*x + b) with g(p) != 0 meets the line with multiplicity m."""
        assume(g(p) != 0)
        line = Polynomial((b, k))
        f = (X - p) ** m * g + line
        assert intersection_multiplicity(f, line, p) == m
        assert is_tangent(f, line, p) == (m >= 2)

    @given(st.one_of(polys, sparse_polys), coeffs, coeffs, points)
    @example(2 * X + 1, Fraction(2), Fraction(1), Fraction(4))  # a coincident line
    @example(ZERO, Fraction(0), Fraction(0), Fraction(-1, 2))
    @example(ZERO, Fraction(3), Fraction(0), Fraction(0))
    def test_matches_binomial_shift_oracle(self, f, k, b, p):
        line = Polynomial((b, k))
        shifted = binomial_shift(f - line, p)
        expected = next((i for i, c in enumerate(shifted) if c), INFINITE)
        assert intersection_multiplicity(f, line, p) == expected

    def test_degree_1024_stops_after_three_divisions(self):
        """m + 1 divisions: a full Taylor shift at this degree takes about 100 times longer."""
        rng = random.Random(1024)
        p = Fraction(1, 3)
        g = Polynomial([rand_rational(rng) for _ in range(1022)] + [1])
        assert g(p) != 0
        line = Polynomial((2, Fraction(-5, 7)))
        f = (X - p) ** 2 * g + line
        assert f.degree == 1024
        assert intersection_multiplicity(f, line, p) == 2
        assert is_tangent(f, line, p)


class TestIsTangent:
    def test_examples(self):
        assert is_tangent(X**2, Polynomial((-9, 6)), 3)
        assert not is_tangent(X**2, Polynomial((-6, 5)), 3)
        assert is_tangent(Polynomial([7]), Polynomial((7, 0)), 5)

    def test_touching_parabolas(self):
        """x^2 and 2x^2 - 2x + 1 differ by (x - 1)^2: they meet only at 1, where they touch."""
        g = 2 * X**2 - 2 * X + 1
        assert is_tangent(X**2, g, 1)
        assert not is_tangent(X**2, g, 0)

    def test_line_is_its_own_tangent(self):
        assert is_tangent(2 * X + 1, Polynomial((1, 2)), 4)


class TestTangentAt:
    def test_square_at_three(self):
        t = tangent_at(X**2, 3)
        assert (t.slope, t.intercept, t.cofactor) == (6, -9, ONE)

    def test_cube_at_two(self):
        t = tangent_at(X**3, 2)
        assert (t.slope, t.intercept) == (12, -16)
        assert t.cofactor == X + 4

    def test_constant(self):
        t = tangent_at(Polynomial([5]), 7)
        assert (t.slope, t.intercept, t.cofactor) == (0, 5, ZERO)

    def test_zero_polynomial(self):
        t = tangent_at(ZERO, 3)
        assert (t.slope, t.intercept, t.cofactor) == (0, 0, ZERO)

    def test_intercept_relation(self):
        f = X**4 - 2 * X
        p = Fraction(-3, 2)
        t = tangent_at(f, p)
        assert t.intercept == f(p) - t.slope * p

    @given(polys, points)
    def test_certificate(self, f, p):
        t = tangent_at(f, p)
        assert (X - p) ** 2 * t.cofactor + Polynomial((t.intercept, t.slope)) == f

    @given(polys, points)
    @example(ZERO, Fraction(3))
    @example(Polynomial([5]), Fraction(7))
    def test_certificate_holds_independently(self, f, p):
        t = tangent_at(f, p)
        assert certificate_holds(f, t.slope, t.intercept, t.point, t.cofactor)

    def test_independent_check_rejects_a_wrong_certificate(self):
        f = X**3
        t = tangent_at(f, 2)
        assert certificate_holds(f, t.slope, t.intercept, 2, t.cofactor)
        assert not certificate_holds(f, t.slope, t.intercept, 2, t.cofactor + 1)
        assert not certificate_holds(f, t.slope + 1, t.intercept, 2, t.cofactor)
        assert not certificate_holds(f, t.slope, t.intercept, 3, t.cofactor)
        assert not certificate_holds(Polynomial([5]), 1, 5, 0, ZERO)

    @given(polys, points)
    @example(ZERO, Fraction(3))
    @example(Polynomial([5]), Fraction(7))
    @example(2 * X + 1, Fraction(-1, 2))
    def test_matches_expansion_oracle(self, f, p):
        t = tangent_at(f, p)
        assert (t.slope, t.intercept, t.cofactor) == expansion_tangent(f, p)

    @given(polys, points)
    def test_cofactor_degree_bound(self, f, p):
        t = tangent_at(f, p)
        if f.degree is None or f.degree <= 1:
            assert t.cofactor == ZERO
        else:
            assert t.cofactor.degree == f.degree - 2
            assert t.cofactor.leading_coefficient == f.leading_coefficient

    def test_certificate_takes_no_polynomial_product_or_power(self, monkeypatch):
        """The re-check shares no `*` or `**` with the code that lowered f."""
        f = X**3 - 2 * X + Fraction(1, 3)

        def refuse(*args):
            raise AssertionError("tangent_at ran a Polynomial product or power")

        for name in ("__pow__", "__mul__", "__rmul__"):
            monkeypatch.setattr(Polynomial, name, refuse)
        t = tangent_at(f, Fraction(-2, 5))
        assert (t.slope, t.intercept) == (Fraction(-38, 25), Fraction(1, 3) + Fraction(16, 125))
        assert t.cofactor.coeffs == (Fraction(-4, 5), 1)

    @given(polys, points)
    def test_constructed_line_is_tangent(self, f, p):
        t = tangent_at(f, p)
        assert is_tangent(f, Polynomial((t.intercept, t.slope)), p)


class TestUniqueness:
    def test_perturbed_slopes_fail(self):
        rng = random.Random(20260810)
        for _ in range(50):
            f = rand_polynomial(rng, max_degree=8, allow_zero=False)
            while f.degree < 2:
                f = rand_polynomial(rng, max_degree=8, allow_zero=False)
            p = rand_rational(rng)
            k = tangent_at(f, p).slope
            for wrong in (k + 1, k - 1, k + Fraction(1, 2), k - Fraction(1, 2)):
                line = Polynomial((f(p) - wrong * p, wrong))
                assert not is_tangent(f, line, p)


class TestDerivative:
    def test_power_examples(self):
        assert derivative(X**2) == 2 * X
        assert derivative(X**3) == 3 * X**2

    def test_linear_and_constant(self):
        assert derivative(Fraction(7, 2) * X - 1) == Polynomial([Fraction(7, 2)])
        assert derivative(Polynomial([9])) == ZERO
        assert derivative(ZERO) == ZERO

    # Monomials up to x^40, binomials with a constant term and zero take the
    # shift for x at every Horner step; so does a seeded dense degree-128 f.
    @given(sparse_polys)
    @example(DENSE_128)
    def test_agrees_with_power_rule_oracle(self, f):
        assert derivative(f) == power_rule_derivative(f)

    @given(polys, points)
    def test_pointwise_consistency_with_tangents(self, f, p):
        assert derivative(f)(p) == tangent_at(f, p).slope

    @given(polys, polys, coeffs)
    def test_linearity(self, f, g, c):
        assert derivative(f + g) == derivative(f) + derivative(g)
        assert derivative(f * c) == derivative(f) * c


class TestRatfunDerivative:
    def test_reciprocal(self):
        r = ratfun_derivative(RationalFunction(ONE, X))
        assert r == RationalFunction(Polynomial([-1]), X**2)
        assert str(r) == "-1/x^2"

    def test_denominator_one_reduces_to_polynomial_case(self):
        f = X**3 - Fraction(1, 2) * X
        assert ratfun_derivative(RationalFunction(f)) == RationalFunction(derivative(f))

    def test_reducible_input(self):
        assert ratfun_derivative(RationalFunction(X**2, X)) == RationalFunction(ONE)

    @given(polys, small_factors, small_factors, st.integers(0, 3), points, st.integers(0, 3))
    @example(ZERO, ONE, Polynomial([3]), 0, Fraction(0), 0)
    @example(Polynomial([5]), ONE, Polynomial([-2]), 2, Fraction(1), 0)
    @example(Polynomial([5]), X + 1, ONE, 3, Fraction(-1), 2)
    @example(X**2 + 1, ONE, X, 1, Fraction(0), 3)
    def test_matches_full_quotient_rule(self, f, u, v, k, a, j):
        """Against the unreduced (n'd - nd')/d**2, on denominators with repeated factors."""
        r = RationalFunction(f, u**k * v * (X - a) ** j)
        n, d = r.num, r.den
        got = ratfun_derivative(r)
        want = RationalFunction(derivative(n) * d - n * derivative(d), d * d)
        assert (got.num, got.den, str(got)) == (want.num, want.den, str(want))
        assert got.den.leading_coefficient == 1
        assert polynomial_gcd(got.num, got.den) == ONE


class TestCertificateError:
    def test_is_a_distinct_runtime_error(self):
        assert issubclass(CertificateError, RuntimeError)
        with pytest.raises(CertificateError):
            raise CertificateError("boom")
