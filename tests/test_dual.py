"""Dual-number arithmetic, the polynomial instantiation, and float elementaries."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytangent.dual import (
    ELEMENTARY_TAGS,
    DomainError,
    Dual,
    eval_elementary,
    eval_poly,
)
from polytangent.polynomial import Polynomial, X
from polytangent.tangency import tangent_at
from support import power_rule_derivative, rand_polynomial, rand_rational

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
polys = st.builds(Polynomial, st.lists(coeffs, max_size=9))
duals = st.builds(Dual, coeffs, coeffs)


class TestArithmetic:
    def test_add(self):
        assert Dual(1, 2) + Dual(3, 4) == Dual(4, 6)
        assert Dual(5, -2) + Dual(0, 0) == Dual(5, -2)
        a, b = Fraction(3, 7), Fraction(5, 2)
        assert Dual(a, b) + Dual(a, -b) == Dual(2 * a, 0)

    def test_mul_drops_eps_squared(self):
        a, b = Fraction(4, 3), Fraction(-2, 5)
        assert Dual(a, b) * Dual(a, b) == Dual(a * a, 2 * a * b)
        assert Dual(3, 1) * Dual(3, 1) == Dual(9, 6)
        u = Dual(Fraction(7, 5), Fraction(1, 3))
        assert u * Dual(1, 0) == u

    def test_scalar_mixing(self):
        assert Dual(1, 2) + 3 == Dual(4, 2)
        assert 3 + Dual(1, 2) == Dual(4, 2)
        assert Dual(1, 2) * 3 == Dual(3, 6)

    @given(duals, duals, duals)
    def test_ring_laws(self, u, v, w):
        assert (u + v) + w == u + (v + w)
        assert u + v == v + u
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w

    @given(coeffs)
    def test_nilpotency(self, b):
        u = Dual(Fraction(0), b)
        assert u * u == Dual(0, 0)


class TestPolynomialEvaluation:
    def test_cube_at_two(self):
        assert eval_poly(X**3, Dual(Fraction(2), Fraction(1))) == Dual(8, 12)

    def test_constant(self):
        f = Polynomial([Fraction(5, 3)])
        assert eval_poly(f, Dual(Fraction(9), Fraction(4))) == Dual(Fraction(5, 3), 0)

    def test_scaled_eps(self):
        assert eval_poly(X**2, Dual(Fraction(3), Fraction(2))) == Dual(9, 12)

    @given(polys, coeffs)
    def test_agreement_with_tangency(self, f, p):
        assert eval_poly(f, Dual(p, Fraction(1))).eps == tangent_at(f, p).slope

    def test_chain_rule_shadow(self):
        rng = random.Random(7)
        for _ in range(50):
            f = rand_polynomial(rng, max_degree=5)
            g = rand_polynomial(rng, max_degree=5)
            p = rand_rational(rng)
            via_dual = eval_poly(f(g), Dual(p, Fraction(1))).eps
            expected = power_rule_derivative(f)(g(p)) * power_rule_derivative(g)(p)
            assert via_dual == expected

    def test_symbolic_instantiation(self):
        out = eval_poly(X**2 - 5 * X + 6, Dual(X, Polynomial([1])))
        assert out.real == X**2 - 5 * X + 6
        assert out.eps == 2 * X - 5


IN_DOMAIN = {
    "exp": [-2.0 + 0.25 * i for i in range(16)],
    "sin": [-2.0 + 0.25 * i for i in range(16)],
    "cos": [-2.0 + 0.25 * i for i in range(16)],
    "log": [0.25 + 0.25 * i for i in range(16)],
    "tan": [-1.4 + (2.8 / 15) * i for i in range(16)],
}

REFERENCE = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "log": math.log,
    "tan": math.tan,
}


class TestElementary:
    @pytest.mark.parametrize(
        "tag,expected",
        [("sin", Dual(0.0, 1.0)), ("exp", Dual(1.0, 1.0))],
    )
    def test_at_zero(self, tag, expected):
        out = eval_elementary(tag, Dual(0.0, 1.0))
        assert math.isclose(out.real, expected.real, abs_tol=1e-15)
        assert math.isclose(out.eps, expected.eps, abs_tol=1e-15)

    def test_log_at_one(self):
        out = eval_elementary("log", Dual(1.0, 1.0))
        assert out == Dual(0.0, 1.0)

    @pytest.mark.parametrize("tag", sorted(IN_DOMAIN))
    def test_finite_difference_consistency(self, tag):
        h = 1e-6
        ref = REFERENCE[tag]
        for a in IN_DOMAIN[tag]:
            eps = eval_elementary(tag, Dual(a, 1.0)).eps
            central = (ref(a + h) - ref(a - h)) / (2 * h)
            assert abs(eps - central) <= 1e-6 * (1 + abs(eps))

    def test_eps_scales_with_b(self):
        out = eval_elementary("sin", Dual(0.0, 2.5))
        assert math.isclose(out.eps, 2.5, rel_tol=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_elementary("log", Dual(-1.0, 1.0))
        with pytest.raises(DomainError):
            eval_elementary("log", Dual(0.0, 1.0))
        with pytest.raises(DomainError):
            eval_elementary("tan", Dual(math.pi / 2, 1.0))

    def test_tags_are_closed(self):
        assert set(IN_DOMAIN) == set(ELEMENTARY_TAGS)
        with pytest.raises(ValueError, match="unknown elementary function tag 'sinh'"):
            eval_elementary("sinh", Dual(0.0, 1.0))
