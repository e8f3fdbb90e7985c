"""The integer curve sampler against evaluation at each Fraction sample point."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polytangent.plotting import _sample_curve, render_figure
from polytangent.polynomial import Polynomial, X

rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 1000))


def reference(f, lo, hi, samples):
    xs = [lo + (hi - lo) * Fraction(i, samples - 1) for i in range(samples)]
    return [(float(x), float(f(x))) for x in xs]


@given(
    coeffs=st.lists(rationals, max_size=9),
    ends=st.lists(rationals, min_size=2, max_size=2, unique=True),
    samples=st.one_of(st.just(257), st.integers(2, 64)),
)
def test_sampler_matches_fraction_evaluation(coeffs, ends, samples):
    f = Polynomial(coeffs)  # the zero and constant polynomials included
    lo, hi = sorted(ends)
    assert _sample_curve(f, lo, hi, samples) == reference(f, lo, hi, samples)


@pytest.mark.parametrize("coeffs", [(), (Fraction(-7, 3),)], ids=["zero", "constant"])
def test_sampler_flat_curves(coeffs):
    f = Polynomial(coeffs)
    assert _sample_curve(f, Fraction(-1), Fraction(2, 3), 257) == reference(
        f, Fraction(-1), Fraction(2, 3), 257
    )


@pytest.mark.parametrize("f,hi", [(X, "1e400"), (X**8, "1e50")], ids=["x", "y"])
def test_samples_past_the_float_range_overflow(f, hi):
    with pytest.raises(OverflowError):
        render_figure(f, 0, 0, Fraction(hi))
