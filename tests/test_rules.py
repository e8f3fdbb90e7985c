"""Sum, product, quotient, and chain rules as exact identities."""

import random
from fractions import Fraction

import pytest

from polytangent.polynomial import ONE, X, ZERO, Polynomial, RationalFunction
from polytangent.rules import (
    VERIFIERS,
    verify_chain,
    verify_product,
    verify_quotient,
    verify_sum,
)
from polytangent.tangency import derivative, tangent_at
from support import rand_nonzero_polynomial, rand_polynomial, rand_rational


def check(verify, f, g):
    """Run a verifier as `rules` does, with f' and g' computed once by the caller."""
    return verify(f, g, derivative(f), derivative(g))


class TestSum:
    def test_square_plus_cube(self):
        rep = check(verify_sum, X**2, X**3)
        assert rep.holds
        assert rep.lhs == RationalFunction(3 * X**2 + 2 * X)

    def test_zero_summand(self):
        assert check(verify_sum, X**4 - Fraction(1, 3), ZERO).holds

    def test_cancellation(self):
        rep = check(verify_sum, X, -X)
        assert rep.holds
        assert rep.lhs == RationalFunction(ZERO)


class TestProduct:
    def test_x_times_x(self):
        rep = check(verify_product, X, X)
        assert rep.holds
        assert rep.lhs == RationalFunction(2 * X)

    def test_constant_factor(self):
        g = X**3 - X
        rep = check(verify_product, Polynomial([Fraction(5, 2)]), g)
        assert rep.holds
        assert rep.rhs == RationalFunction(Fraction(5, 2) * (3 * X**2 - 1))

    def test_square_times_cube(self):
        rep = check(verify_product, X**2, X**3)
        assert rep.holds
        assert rep.lhs == RationalFunction(5 * X**4)


class TestQuotient:
    def test_one_over_x(self):
        rep = check(verify_quotient, ONE, X)
        assert rep.holds
        assert str(rep.lhs) == "-1/x^2"

    def test_reducible_quotient(self):
        rep = check(verify_quotient, X**2, X)
        assert rep.holds
        assert rep.lhs == RationalFunction(ONE)

    def test_denominator_one(self):
        f = X**5 - 2 * X
        rep = check(verify_quotient, f, ONE)
        assert rep.holds
        assert rep.lhs == RationalFunction(5 * X**4 - 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            check(verify_quotient, X, ZERO)


class TestChain:
    def test_square_of_shift(self):
        rep = check(verify_chain, X**2, X + 1)
        assert rep.holds
        assert rep.lhs == RationalFunction(2 * X + 2)

    def test_identity_outer(self):
        g = X**4 - 3 * X
        rep = check(verify_chain, X, g)
        assert rep.holds
        assert rep.lhs == RationalFunction(4 * X**3 - 3)

    def test_cube_of_double(self):
        rep = check(verify_chain, X**3, 2 * X)
        assert rep.holds
        assert rep.lhs == RationalFunction(24 * X**2)


class TestRandomCorpus:
    def test_all_rules_hold(self):
        rng = random.Random(987654321)
        for _ in range(50):
            f = rand_polynomial(rng, max_degree=6)
            g = rand_polynomial(rng, max_degree=6)
            assert check(verify_sum, f, g).holds
            assert check(verify_product, f, g).holds
            assert check(verify_chain, f, g).holds
            assert check(verify_quotient, f, rand_nonzero_polynomial(rng, max_degree=6)).holds

    def test_registry_is_complete(self):
        assert list(VERIFIERS) == ["sum", "product", "quotient", "chain"]


class TestWrongDerivativeIsCaught:
    """A verifier trusts the f' and g' it is handed only on its right-hand side.

    For nonconstant f and g, adding 1 to f' changes the right-hand side
    by 1, g, 1/g or g', and adding 1 to g' by 1, f, -f/g**2 or f'(g):
    never by zero, so the left-hand side, which differentiates on its
    own, must disagree.
    """

    @pytest.mark.parametrize("rule", list(VERIFIERS))
    def test_wrong_df_or_dg_fails(self, rule):
        verify = VERIFIERS[rule]
        rng = random.Random(24680)
        for _ in range(20):
            f = rand_nonzero_polynomial(rng, max_degree=6) * X + 1  # degree >= 1
            g = rand_nonzero_polynomial(rng, max_degree=6) * X - 2
            df, dg = derivative(f), derivative(g)
            assert verify(f, g, df, dg).holds is True
            assert verify(f, g, df + 1, dg).holds is False
            assert verify(f, g, df, dg + 1).holds is False


class TestCertificateLevelSum:
    def test_summed_certificates_certify_the_sum(self):
        rng = random.Random(13579)
        for _ in range(50):
            f = rand_polynomial(rng, max_degree=8)
            g = rand_polynomial(rng, max_degree=8)
            p = rand_rational(rng)
            tf = tangent_at(f, p)
            tg = tangent_at(g, p)
            k = tf.slope + tg.slope
            b = tf.intercept + tg.intercept
            q = tf.cofactor + tg.cofactor
            assert (X - p) ** 2 * q + Polynomial([b, k]) == f + g
