"""Increments, the exact linear decomposition, and difference-quotient tables."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytangent.decomposition import (
    MAX_STEPS,
    decompose,
    increment,
    quotient_table,
    remainder_valuation,
)
from polytangent.polynomial import Polynomial, X, ZERO
from polytangent.tangency import INFINITE, derivative, tangent_at

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
polys = st.builds(Polynomial, st.lists(coeffs, max_size=9))
points = st.fractions(min_value=-9, max_value=9, max_denominator=9)


class TestIncrement:
    def test_examples(self):
        assert increment(X**2, 3, 1) == 7
        assert increment(X**5 - X, 2, 0) == 0
        assert increment(X**2, 3, Fraction(1, 10)) == Fraction(61, 100)


class TestDecompose:
    def test_square(self):
        d = decompose(X**2, 3)
        assert (d.value, d.slope) == (9, 6)
        assert d.remainder == X**2  # as a polynomial in the increment

    def test_linear_has_zero_remainder(self):
        d = decompose(7 * X + 2, 4)
        assert d.remainder == ZERO
        assert remainder_valuation(d) == INFINITE

    def test_cube_about_one(self):
        d = decompose(X**3, 1)
        assert (d.value, d.slope) == (1, 3)
        assert d.remainder == 3 * X**2 + X**3

    def test_quartic_about_zero(self):
        d = decompose(X**4, 0)
        assert (d.value, d.slope) == (0, 0)
        assert remainder_valuation(d) == 4

    @given(polys, points)
    def test_reconstruction(self, f, x0):
        d = decompose(f, x0)
        rebuilt = (Polynomial([d.value, d.slope]) + d.remainder)(X - x0)
        assert rebuilt == f

    @given(polys, points)
    def test_valuation_at_least_two(self, f, x0):
        v = remainder_valuation(decompose(f, x0))
        assert v == INFINITE or v >= 2

    @given(polys, points, points)
    def test_increment_equals_linear_part_plus_remainder(self, f, x0, dx):
        d = decompose(f, x0)
        assert increment(f, x0, dx) == d.slope * dx + d.remainder(dx)

    @given(polys, points)
    def test_slope_agreement_across_modules(self, f, x0):
        d = decompose(f, x0)
        assert d.slope == tangent_at(f, x0).slope == derivative(f)(x0)


class TestQuotientTable:
    def test_square_at_three(self):
        rows = quotient_table(X**2, 3, 3)
        assert [r.quotient for r in rows] == [
            Fraction(61, 10),
            Fraction(601, 100),
            Fraction(6001, 1000),
        ]
        assert [r.gap for r in rows] == [
            Fraction(1, 10),
            Fraction(1, 100),
            Fraction(1, 1000),
        ]

    def test_line_has_zero_gaps(self):
        rows = quotient_table(4 * X - 1, 9, 4)
        assert all(r.gap == 0 for r in rows)

    def test_cube_at_one(self):
        rows = quotient_table(X**3, 1, 2)
        assert rows[0].quotient == Fraction(331, 100)
        assert [r.gap for r in rows] == [Fraction(31, 100), Fraction(301, 10000)]

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            quotient_table(X, 0, 0)
        with pytest.raises(ValueError, match=str(MAX_STEPS)):
            quotient_table(X, 0, MAX_STEPS + 1)
        assert len(quotient_table(X, 0, MAX_STEPS)) == MAX_STEPS

    @given(polys, points)
    def test_gap_identity(self, f, x0):
        d = decompose(f, x0)
        for row in quotient_table(f, x0, 4):
            assert row.quotient == row.dy / row.h
            assert row.gap * row.h == d.remainder(row.h)

    def test_gaps_shrink_once_the_lowest_term_dominates(self):
        rng = random.Random(20260810)
        for _ in range(40):
            f = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 9))])
            x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            d = decompose(f, x0)
            v = remainder_valuation(d)
            if v == INFINITE:
                continue
            tail = sum(abs(c) for c in d.remainder.coeffs[v + 1 :])
            lead = abs(d.remainder.coeffs[v])
            # below this radius the valuation term is at least twice the rest
            radius = min(Fraction(1), lead / (2 * tail)) if tail else Fraction(1)
            rows = [r for r in quotient_table(f, x0, 6) if r.h < radius]
            gaps = [abs(r.gap) for r in rows]
            assert all(a > b for a, b in zip(gaps, gaps[1:]))
