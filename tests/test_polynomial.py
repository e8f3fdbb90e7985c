"""Dense polynomial arithmetic, division, gcd, and rational functions."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytangent.polynomial import (
    ONE,
    X,
    ZERO,
    Polynomial,
    RationalFunction,
    polynomial_gcd,
)
from polytangent.tangency import taylor_shift
from support import (
    assert_well_formed,
    coefficient_sum,
    compose,
    convolve,
    cross_multiplied_equal,
    from_terms,
    reference_divmod,
    reference_gcd,
    sparse_polys,
    two_term_polys,
)

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
polys = st.builds(Polynomial, st.lists(coeffs, max_size=9))
# Coefficients of 30 to 40 digits, over denominators of up to 32 digits.
big_coeffs = st.builds(Fraction, st.integers(10**29, 10**40) | st.integers(-(10**40), -(10**29)),
                       st.integers(1, 10**32))
mixed_polys = st.builds(Polynomial, st.lists(coeffs | big_coeffs, max_size=7))
factors = st.lists(coeffs | big_coeffs, min_size=2, max_size=5).filter(lambda cs: cs[-1]).map(
    Polynomial)  # degree >= 1
# Degree 29 to 40 with big coefficients: a dividend that takes many pseudo-division steps.
long_polys = st.builds(lambda cs, c: Polynomial([*cs, c]),
                       st.lists(coeffs | big_coeffs, min_size=29, max_size=40),
                       coeffs.filter(bool) | big_coeffs)
# Divisors, nearly all non-monic: 3x^2 + 2x - 1, a big leading coefficient, or factors.
divisors = st.one_of(
    st.just(3 * X**2 + 2 * X - 1),
    st.builds(lambda low, c: Polynomial([*low, c]), st.lists(coeffs, min_size=1, max_size=3),
              big_coeffs),
    factors,
)
# Three to five terms at powers 0..12: a factor x^v when 0 is not drawn, and gaps between.
gapped_polys = st.dictionaries(st.integers(0, 12), coeffs.filter(bool), min_size=3,
                               max_size=5).map(from_terms)
P = 2**61 - 1  # the prime of polynomial_gcd's coprimality certificate
points = st.fractions(min_value=-9, max_value=9, max_denominator=9)
scalars = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-99, 99), coeffs)


def _composable(primes):
    """Degree <= 8 over small and large prime denominators; zero, constants and x*h drawn apart."""
    cs = coeffs | st.builds(Fraction, st.integers(-(10**12), 10**12), st.sampled_from(primes))
    return st.one_of(
        st.just(ZERO),
        cs.map(lambda c: Polynomial((c,))),
        st.builds(Polynomial, st.lists(cs, max_size=9)),
        st.lists(cs, max_size=8).map(lambda tail: Polynomial([0, *tail])),  # zero constant term
    )


# The two sides take different primes, so the common denominators of f and g are coprime.
outer_polys = _composable((10**9 + 7, 998_244_353))
inner_polys = _composable((2**31 - 1, 2**61 - 1))


class TestStructure:
    def test_trailing_zeros_are_stripped(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)

    def test_zero_polynomial(self):
        assert Polynomial([0, 0]).coeffs == ()
        assert Polynomial().degree is None
        assert not Polynomial()

    def test_degree(self):
        assert Polynomial([5]).degree == 0
        assert (X**7).degree == 7

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            Polynomial([0.5])
        with pytest.raises(TypeError):
            X + 0.5

    @given(polys)
    def test_normalized_leading_coefficient(self, f):
        if f:
            assert f.coeffs[-1] != 0

    def test_constants_hash_as_their_scalars(self):
        assert Polynomial((3,)) == 3 and hash(Polynomial((3,))) == hash(3)
        assert ZERO == 0 and hash(ZERO) == hash(0) == hash(Fraction(0))
        assert len({3, Polynomial((3,))}) == 1
        assert len({0, Fraction(0), ZERO}) == 1

    @given(polys)
    def test_hash_agrees_with_equality(self, f):
        assert hash(f) == hash(Polynomial(f.coeffs))
        if len(f.coeffs) <= 1:
            assert hash(f) == hash(f.coefficient(0))
        else:
            assert hash(f) == hash(f.coeffs)


class TestResultsAreWellFormed:
    """Ring results skip coefficient validation, so check what they hold."""

    @given(sparse_polys, sparse_polys, two_term_polys, gapped_polys, coeffs, st.integers(-9, 9),
           points, st.integers(0, 4))
    def test_every_operation(self, f, g, t, h, c, n, p, e):
        results = [f + g, f + n, n + f, f - g, f - n, n - f, -f, f * g, f * n, n * f, f * c,
                   c * f, f * 0, f**e, t**e, h**e, taylor_shift(f, p)]
        if g:
            results += divmod(f, g)
        if f:
            results.append(f.monic())
        for r in results:
            assert_well_formed(r)

    @given(outer_polys | mixed_polys | long_polys, inner_polys.filter(bool) | divisors)
    def test_division(self, f, g):
        # Large coprime denominators on both sides, and non-monic divisors.
        for r in divmod(f, g):
            assert_well_formed(r)


class TestAgainstPlainArithmetic:
    """Products, powers and sums agree with plain Fraction loops over ``.coeffs``."""

    @given(sparse_polys, sparse_polys)
    def test_product(self, f, g):
        expected = convolve(f.coeffs, g.coeffs)
        assert (f * g).coeffs == expected
        assert (g * f).coeffs == expected

    @given(sparse_polys, scalars)
    def test_scalar_product(self, f, c):
        expected = convolve(f.coeffs, (c,))
        assert (f * c).coeffs == expected
        assert (c * f).coeffs == expected

    @given(st.one_of(st.tuples(sparse_polys, st.integers(0, 6)),
                     st.tuples(two_term_polys, st.integers(0, 40)),
                     st.tuples(mixed_polys, st.integers(0, 5)),
                     st.tuples(gapped_polys, st.integers(0, 15))))
    def test_power(self, base_and_exponent):
        f, e = base_and_exponent
        assert (f**e).coeffs == reduce(convolve, [f.coeffs] * e, (Fraction(1),))

    @given(sparse_polys, sparse_polys)
    def test_sum_and_difference(self, f, g):
        assert (f + g).coeffs == coefficient_sum(f.coeffs, g.coeffs)
        assert (f - g).coeffs == coefficient_sum(f.coeffs, g.coeffs, -1)


class TestMonomialShift:
    """A monomial operand c*x^j is a shift and a scale: j zeros, then the other operand."""

    @given(sparse_polys, st.integers(0, 40))
    def test_power_of_x_puts_zeros_in_front(self, f, j):
        for product in (X**j * f, f * X**j):
            if not f:
                assert product.coeffs == ()
                continue
            assert product.coeffs[:j] == (0,) * j
            assert product.coeffs[j:] == f.coeffs
            if sum(1 for c in f.coeffs if c) > 1:
                # f is not a monomial, so x^j shifts it: its own Fraction
                # objects, no arithmetic.
                assert all(p is c for p, c in zip(product.coeffs[j:], f.coeffs))

    @given(sparse_polys, scalars, st.integers(0, 40))
    def test_scaled_monomial_matches_the_product_oracle(self, f, c, j):
        m = c * X**j
        expected = convolve(m.coeffs, f.coeffs)
        assert (m * f).coeffs == expected
        assert (f * m).coeffs == expected

    @given(sparse_polys)
    def test_factor_one_returns_the_operand(self, f):
        assert f * 1 is f and 1 * f is f and f * ONE is f
        # Of two constants the right one scales the left, so ONE * c is a new c.
        assert ONE * f is f if f.degree else ONE * f == f

    @given(sparse_polys)
    def test_factor_zero_gives_zero(self, f):
        assert f * 0 == ZERO and 0 * f == ZERO and f * Fraction(0) == ZERO
        assert (f * 0).coeffs == (0 * f).coeffs == (f * Fraction(0)).coeffs == ()

    def test_factor_zero_multiplies_no_coefficient(self):
        class Unmultipliable(Fraction):
            def __mul__(self, other):
                raise AssertionError("a zero factor multiplied a coefficient")

            __rmul__ = __mul__

        f = Polynomial._trusted([Unmultipliable(3), Unmultipliable(-2)])
        assert f * 0 == ZERO and 0 * f == ZERO and f * Fraction(0) == ZERO


# Coefficients that are often 0, 1 or -1: monic operands, unit factors and gaps.
unit_coeffs = st.sampled_from([0, 1, -1]) | coeffs
unit_polys = st.builds(Polynomial, st.lists(unit_coeffs, max_size=9))


class TestGeneralProduct:
    """Squares, products by x and the schoolbook loop, against ``convolve``, each well formed."""

    @given(st.one_of(sparse_polys, mixed_polys, gapped_polys, unit_polys))
    def test_square_is_the_power(self, p):
        square = p * p
        assert_well_formed(square)
        assert square.coeffs == (p**2).coeffs == convolve(p.coeffs, p.coeffs)

    @pytest.mark.parametrize("p", [
        from_terms({2: 3, 3: Fraction(-1, 2), 5: 7}),  # x^2 factored out: a zero constant term
        from_terms({1: Fraction(2, 3), 4: 1}),
        Polynomial((0, 0, 0, 1, 1)),
    ])
    def test_square_with_a_low_order_zero(self, p):
        square = p * p
        assert_well_formed(square)
        assert square.coeffs == convolve(p.coeffs, p.coeffs)
        v = next(i for i, c in enumerate(p.coeffs) if c)
        assert square.coeffs[:2 * v] == (0,) * (2 * v) and square.coeffs[2 * v]

    @pytest.mark.parametrize("p", [ZERO, ONE, Polynomial((-1,)), Polynomial((Fraction(3, 7),)),
                                   X, X - 1, Polynomial((0, 0, Fraction(-2, 5)))])
    def test_x_shifts_by_one_place(self, p):
        for product in (X * p, p * X):
            assert_well_formed(product)
            assert product.coeffs == convolve(X.coeffs, p.coeffs)

    @given(st.one_of(sparse_polys, mixed_polys, unit_polys))
    def test_x_shift_matches_the_oracle(self, p):
        for product in (X * p, p * X):
            assert_well_formed(product)
            assert product.coeffs == convolve(X.coeffs, p.coeffs)

    @pytest.mark.parametrize("f,g", [
        (X**2 + 1, X**2 - 1),  # x^4 - 1: x and x^3 are never reached
        (X**3, X**5 + 1),
        (X**5 + 1, X**3 + X),
        (from_terms({0: 2, 6: Fraction(1, 3)}), from_terms({1: 5, 4: -1})),
    ])
    def test_sparse_operands_leave_slots_empty(self, f, g):
        for product in (f * g, g * f):
            assert_well_formed(product)
            assert product.coeffs == convolve(f.coeffs, g.coeffs)

    @given(st.one_of(gapped_polys, unit_polys, sparse_polys), st.one_of(gapped_polys, unit_polys))
    def test_sparse_and_unit_products(self, f, g):
        for product in (f * g, g * f):
            assert_well_formed(product)
            assert product.coeffs == convolve(f.coeffs, g.coeffs)

    def test_monic_and_unit_coefficients(self):
        f = Polynomial((Fraction(2, 3), -1, 1))  # monic
        g = Polynomial((1, Fraction(-5, 2), 1, 1))
        for product in (f * g, g * f, f * f):
            assert_well_formed(product)
        assert (f * g).coeffs == convolve(f.coeffs, g.coeffs)

    def test_no_multiplication_by_a_unit_coefficient(self):
        class Unit(Fraction):
            def __mul__(self, other):
                raise AssertionError("a coefficient was multiplied by 1")

            __rmul__ = __mul__

        f = Polynomial._trusted([Fraction(2), Fraction(-3), Unit(1)])
        g = Polynomial._trusted([Unit(1), Fraction(1, 2), Fraction(5)])
        plain_f, plain_g = Polynomial((2, -3, 1)), Polynomial((1, Fraction(1, 2), 5))
        assert (f * g).coeffs == (g * f).coeffs == convolve(plain_f.coeffs, plain_g.coeffs)

    @pytest.mark.parametrize("f,g", [
        (X**2 + X + 1, X - 1),  # x^3 - 1: the x and x^2 terms cancel
        (X**4 + X**3 + X**2 + X + 1, 1 - X),
        (X**2 + Fraction(1, 2) * X + Fraction(1, 4), 2 * X - 1),
    ])
    def test_terms_that_cancel(self, f, g):
        product = f * g
        assert_well_formed(product)
        assert product.coeffs == convolve(f.coeffs, g.coeffs)
        assert sum(1 for c in product.coeffs if c) == 2
        assert product.degree == f.degree + g.degree


class TestRingOperations:
    def test_add_cancellation_renormalizes(self):
        assert (X**2 + 1) + (-(X**2) + X) == X + 1

    def test_add_identity(self):
        f = X**3 - 2 * X
        assert f + ZERO == f
        assert X + X == 2 * X

    def test_mul(self):
        assert (X - 2) * (X - 3) == X**2 - 5 * X + 6
        f = X**4 + Fraction(1, 2)
        assert f * ONE == f
        assert (X - 3) ** 2 * ONE == X**2 - 6 * X + 9

    def test_mul_degree_adds(self):
        assert ((X**3 + 1) * (X**2 - 4)).degree == 5

    @given(polys, polys, polys)
    def test_ring_laws(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(polys, polys, points)
    def test_evaluation_homomorphism(self, f, g, p):
        assert (f * g)(p) == f(p) * g(p)
        assert (f + g)(p) == f(p) + g(p)

    @given(polys, polys, points)
    def test_composition_evaluation_compatibility(self, f, g, p):
        assert f(g)(p) == f(g(p))


class TestEvaluation:
    def test_examples(self):
        assert (X**2)(Fraction(3)) == 9
        assert ZERO(Fraction(12, 7)) == 0
        assert (X**3)(Fraction(1, 2)) == Fraction(1, 8)


class TestDivision:
    def test_exact_division(self):
        q, r = divmod(X**2 - 6 * X + 9, (X - 3) ** 2)
        assert (q, r) == (ONE, ZERO)

    def test_division_with_remainder(self):
        q, r = divmod(X**2 - 5 * X + 6, (X - 3) ** 2)
        assert (q, r) == (ONE, X - 3)

    def test_small_by_large(self):
        q, r = divmod(X, X**2)
        assert (q, r) == (ZERO, X)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(X, ZERO)

    @given(polys, polys.filter(bool))
    def test_division_identity(self, f, g):
        q, r = divmod(f, g)
        assert q * g + r == f
        assert not r or r.degree < g.degree

    @given(outer_polys | long_polys, inner_polys.filter(bool) | divisors)
    def test_matches_reference(self, f, g):
        # Coprime large denominators; zero f, deg f < deg g, deg f up to 40 and
        # constant or non-monic g are drawn.
        q, r = divmod(f, g)
        assert (q.coeffs, r.coeffs) == reference_divmod(f.coeffs, g.coeffs)

    def test_constant_divisor_scales(self):
        f = 3 * X**2 - Fraction(1, 2)
        assert divmod(f, ONE) == (f, ZERO) and divmod(f, ONE)[0] is f
        assert divmod(f, Fraction(-3, 7)) == (-7 * X**2 + Fraction(7, 6), ZERO)


class TestComposition:
    def test_examples(self):
        assert (X**2)(X + 1) == X**2 + 2 * X + 1
        g = 3 * X**2 - Fraction(1, 2)
        assert X(g) == g
        assert (X**3)(2 * X) == 8 * X**3
        f = 2 * X**2 - X + Fraction(1, 3)
        assert ZERO(f) == ZERO and Polynomial((5,))(f) == 5
        assert f(ZERO) == Fraction(1, 3) and f(Polynomial((3,))) == Fraction(46, 3)

    @given(outer_polys, inner_polys)
    def test_matches_reference(self, f, g):
        assert f(g).coeffs == compose(f.coeffs, g.coeffs)


class TestGcd:
    def test_examples(self):
        assert polynomial_gcd(X**2 - 1, X - 1) == X - 1
        f = 3 * X**2 + 6
        assert polynomial_gcd(f, ZERO) == f.monic()
        assert polynomial_gcd(X**2 - 5 * X + 6, X**2 - 6 * X + 9) == X - 3

    def test_both_zero(self):
        with pytest.raises(ValueError):
            polynomial_gcd(ZERO, ZERO)

    @given(polys, polys)
    def test_gcd_divides_both(self, f, g):
        if not f and not g:
            return
        d = polynomial_gcd(f, g)
        assert f % d == ZERO
        assert g % d == ZERO

    @given(mixed_polys, mixed_polys)
    def test_matches_reference(self, f, g):
        if f or g:
            assert polynomial_gcd(f, g).coeffs == reference_gcd(f.coeffs, g.coeffs)

    @given(mixed_polys, mixed_polys, factors)
    def test_common_factor_is_found(self, f, g, c):
        # f*c and g*c share c, so their gcd is a multiple of c.monic().
        fc, gc = Polynomial(convolve(f.coeffs, c.coeffs)), Polynomial(convolve(g.coeffs, c.coeffs))
        if not fc and not gc:
            return
        d = polynomial_gcd(fc, gc)
        assert d.coeffs == reference_gcd(fc.coeffs, gc.coeffs)
        assert d % c.monic() == ZERO

    @given(long_polys, divisors)
    def test_long_multiple_of_a_non_monic_divisor(self, h, c):
        # deg(h*c) exceeds deg c by up to 40, so the pseudo-remainder takes
        # many steps by a divisor whose leading coefficient is not 1.
        hc = Polynomial(convolve(h.coeffs, c.coeffs))
        d = polynomial_gcd(hc, c)
        assert d.coeffs == reference_gcd(hc.coeffs, c.coeffs) == c.monic().coeffs

    # The oracle's Fraction Euclid takes tenths of a second per draw here.
    @settings(max_examples=25)
    @given(long_polys, divisors, mixed_polys)
    def test_long_and_short_multiples_of_a_non_monic_divisor(self, h, c, k):
        hc, kc = Polynomial(convolve(h.coeffs, c.coeffs)), Polynomial(convolve(k.coeffs, c.coeffs))
        d = polynomial_gcd(hc, kc)
        assert d.coeffs == reference_gcd(hc.coeffs, kc.coeffs)
        assert d % c.monic() == ZERO

    @pytest.mark.parametrize(
        "c",
        [
            P * X + 1,  # leading numerator P: c is the constant 1 mod P
            3 * P * X**2 + X - 5,  # leading numerator 3P: c drops to degree 1 mod P
            X + Fraction(1, P),  # a denominator P: c does not reduce mod P
            X**2 + Fraction(7, 2 * P) * X + 1,  # a denominator 2P
        ],
        ids=["lead-P", "lead-3P", "den-P", "den-2P"],
    )
    @pytest.mark.parametrize("f,g", [(X, X + 1), (X**2 + 1, X - 3), (ONE, X**3 - X)])
    def test_unlucky_prime_falls_back(self, c, f, g):
        # f and g are coprime, so mod P the common factor c is all that could
        # show; where it vanishes or cannot be reduced, the primitive remainder sequence runs.
        fc, gc = f * c, g * c
        d = polynomial_gcd(fc, gc)
        assert d == c.monic()
        assert d.coeffs == reference_gcd(fc.coeffs, gc.coeffs)


class TestPower:
    def test_pow(self):
        assert X**0 == ONE
        assert (X + 1) ** 2 == X**2 + 2 * X + 1
        with pytest.raises(ValueError):
            X ** (-1)


class TestRendering:
    @pytest.mark.parametrize(
        "poly,text",
        [
            (X**2 - 5 * X + 6, "x^2 - 5*x + 6"),
            (Fraction(-1, 2) * X**3 + X, "-1/2*x^3 + x"),
            (Fraction(1, 2) * X**3 - X, "1/2*x^3 - x"),
            (ZERO, "0"),
            (Polynomial([Fraction(7, 2)]), "7/2"),
            (-X, "-x"),
            (X, "x"),
            (2 * X, "2*x"),
        ],
    )
    def test_canonical_text(self, poly, text):
        assert str(poly) == text

    def test_alternate_variable(self):
        assert (X**2 + 1).render("t") == "t^2 + 1"


class TestRationalFunction:
    def test_common_factor_cancels(self):
        r = RationalFunction(X**2 - 1, X - 1)
        assert r.num == X + 1
        assert r.den == ONE

    def test_polynomial_stays(self):
        r = RationalFunction(X**2 + 1)
        assert (r.num, r.den) == (X**2 + 1, ONE)

    def test_scalar_normalization(self):
        r = RationalFunction(2 * X, Polynomial([2]))
        assert (r.num, r.den) == (X, ONE)

    def test_monic_denominator(self):
        r = RationalFunction(ONE, 2 * X)
        assert r.den == X
        assert r.num == Polynomial([Fraction(1, 2)])

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(X, ZERO)

    def test_zero_is_canonical(self):
        r = RationalFunction(ZERO, X**2 + 1)
        assert (r.num, r.den) == (ZERO, ONE)

    def test_equality(self):
        assert RationalFunction(X + 1) == RationalFunction(X**2 - 1, X - 1)
        assert RationalFunction(X) != RationalFunction(X + 1)
        assert RationalFunction(ZERO, X**2 + 1) == RationalFunction(ZERO)
        assert RationalFunction(X) != X  # no coercion: a polynomial is not a RationalFunction

    @given(polys, polys.filter(bool), polys, polys.filter(bool))
    def test_equality_matches_cross_multiplication(self, a, b, c, d):
        r = RationalFunction(a, b)
        s = RationalFunction(c, d)
        assert (r == s) == cross_multiplied_equal(r, s)

    @pytest.mark.parametrize(
        "r,text",
        [
            (RationalFunction(Polynomial([-1]), X**2), "-1/x^2"),
            (RationalFunction(X + 1, X - 1), "(x + 1)/(x - 1)"),
            (RationalFunction(X + 1), "x + 1"),
            (RationalFunction(ONE, X), "1/x"),
        ],
    )
    def test_rendering(self, r, text):
        assert str(r) == text
