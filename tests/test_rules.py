"""Sum, product, quotient, and chain rules as exact identities."""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polytangent import cli
from polytangent.parser import lower_ratfun, parse
from polytangent.polynomial import ONE, X, ZERO, Polynomial, RationalFunction
from polytangent.rules import (
    VERIFIERS,
    verify_chain,
    verify_product,
    verify_quotient,
    verify_sum,
)
from polytangent.tangency import derivative, ratfun_derivative, tangent_at
from support import (
    convolve,
    quotient_rule_holds,
    rand_nonzero_polynomial,
    rand_polynomial,
    rand_rational,
)

_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_nonzero = st.lists(_coeffs, min_size=1, max_size=4).filter(lambda cs: cs[-1]).map(tuple)
# Divisor factors of degree >= 1, so that a power of one is a repeated factor.
_factors = st.lists(_coeffs, min_size=2, max_size=3).filter(lambda cs: cs[-1]).map(tuple)


def check(verify, f, g):
    """Run a verifier as `rules` does, with f' and g' computed once by the caller."""
    return verify(f, g, derivative(f), derivative(g))


class TestSum:
    def test_square_plus_cube(self):
        rep = check(verify_sum, X**2, X**3)
        assert rep.holds
        assert rep.lhs == 3 * X**2 + 2 * X

    def test_zero_summand(self):
        assert check(verify_sum, X**4 - Fraction(1, 3), ZERO).holds

    def test_cancellation(self):
        rep = check(verify_sum, X, -X)
        assert rep.holds
        assert rep.lhs == ZERO


class TestProduct:
    def test_x_times_x(self):
        rep = check(verify_product, X, X)
        assert rep.holds
        assert rep.lhs == 2 * X

    def test_constant_factor(self):
        g = X**3 - X
        rep = check(verify_product, Polynomial([Fraction(5, 2)]), g)
        assert rep.holds
        assert rep.rhs == Fraction(5, 2) * (3 * X**2 - 1)

    def test_square_times_cube(self):
        rep = check(verify_product, X**2, X**3)
        assert rep.holds
        assert rep.lhs == 5 * X**4


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
        assert rep.lhs == 2 * X + 2

    def test_identity_outer(self):
        g = X**4 - 3 * X
        rep = check(verify_chain, X, g)
        assert rep.holds
        assert rep.lhs == 4 * X**3 - 3

    def test_cube_of_double(self):
        rep = check(verify_chain, X**3, 2 * X)
        assert rep.holds
        assert rep.lhs == 24 * X**2


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


def _power(cs, e):
    out = (Fraction(1),)
    for _ in range(e):
        out = convolve(out, cs)
    return out


class TestQuotientWitness:
    """The derivative of f/g against the pointwise witness from the double-root criterion."""

    @settings(max_examples=60)
    @given(st.lists(_coeffs, max_size=5), _nonzero, _factors, st.integers(0, 3))
    @example([1], [1], [0, 1], 2)  # 1/x^2
    @example([1, 0, 1], [1], [1, 1], 3)  # (x^2 + 1)/(x + 1)^3: g and g' share (x + 1)^2
    def test_ratfun_derivative(self, n, u, v, e):
        # n/(u*v^e): a power e >= 2 of v makes gcd(g, g') nonconstant
        d = convolve(u, _power(v, e))
        r = ratfun_derivative(RationalFunction(Polynomial(n), Polynomial(d)))
        assert quotient_rule_holds(n, d, r.num.coeffs, r.den.coeffs)

    @settings(max_examples=40)
    @given(st.lists(_coeffs, max_size=6), _factors, st.integers(1, 3))
    @example([-1, 0, 1], [-1, 1], 2)  # (x^2 - 1)/(x - 1)^2
    def test_derive_output(self, n, v, e):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["--json", "derive", f"({Polynomial(n)})/({Polynomial(v)})^{e}"])
        env = json.loads(out.getvalue())
        assert (code, env["result"]["kind"]) == (0, "rational_function")
        r = lower_ratfun(parse(env["result"]["derivative"]))
        assert quotient_rule_holds(n, _power(v, e), r.num.coeffs, r.den.coeffs)

    def test_a_wrong_derivative_fails(self):
        # (1/x)' = -1/x^2, not 1/x^2 or -1/x
        assert quotient_rule_holds([1], [0, 1], [-1], [0, 0, 1])
        assert not quotient_rule_holds([1], [0, 1], [1], [0, 0, 1])
        assert not quotient_rule_holds([1], [0, 1], [-1], [0, 1])


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
