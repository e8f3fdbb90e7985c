"""The differentiation rules, verified as exact algebraic identities.

The derivative construction never dispatches on expression structure,
so the sum, product and chain rules are theorems about it rather than
baked-in rewrite rules.  Each verifier takes f, g and their derivatives
df, dg, computed once by the caller, which only its right-hand side
uses: the left-hand side differentiates f + g, f*g, f/g or f(g) itself.
It reports whether the two sides (Polynomials, or RationalFunctions for
the quotient rule) agree in canonical form; a failing report anywhere
is a bug.  What each identity checks:

- sum and product: the dual-Horner derivative of f + g and f*g against
  df + dg and df*g + f*dg.
- chain: both sides compose with the same ``Polynomial.__call__``, f(g)
  on the left and df(g) on the right, so the identity checks the
  derivative of a composition, not the composition.  A composition that
  dropped g's constant term would still pass, since g' is unchanged; the
  composition itself rests on the tests' Fraction-only oracle.
- quotient: the left-hand side is ``ratfun_derivative``, which is the
  quotient rule in reduced form, through gcd(g, g'); the right-hand side
  is the plain quotient rule.  So the identity checks that reduction,
  and the quotient rule is not derived here from the derivative
  construction.
"""

from __future__ import annotations

from collections import namedtuple

from .polynomial import Polynomial, RationalFunction
from .tangency import derivative, ratfun_derivative

class RuleReport(namedtuple("RuleReport", "rule lhs rhs")):
    """Both sides of one rule identity; `holds` is equality of canonical forms.

    A side is a Polynomial or, for the quotient rule, a RationalFunction.
    """

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def verify_sum(f: Polynomial, g: Polynomial, df: Polynomial, dg: Polynomial) -> RuleReport:
    """(f + g)' versus f' + g'."""
    lhs = derivative(f + g)
    rhs = df + dg
    return RuleReport("sum", lhs, rhs)


def verify_product(f: Polynomial, g: Polynomial, df: Polynomial, dg: Polynomial) -> RuleReport:
    """(f*g)' versus f'*g + f*g'."""
    lhs = derivative(f * g)
    rhs = df * g + f * dg
    return RuleReport("product", lhs, rhs)


def verify_quotient(f: Polynomial, g: Polynomial, df: Polynomial, dg: Polynomial) -> RuleReport:
    """(f/g)' versus (f'*g - f*g')/g**2, for nonzero g."""
    if not g:
        raise ZeroDivisionError("quotient rule needs a nonzero denominator")
    lhs = ratfun_derivative(RationalFunction(f, g))
    rhs = RationalFunction(df * g - f * dg, g * g)
    return RuleReport("quotient", lhs, rhs)


def verify_chain(f: Polynomial, g: Polynomial, df: Polynomial, dg: Polynomial) -> RuleReport:
    """(f(g(x)))' versus f'(g(x)) * g'(x)."""
    lhs = derivative(f(g))
    rhs = df(g) * dg
    return RuleReport("chain", lhs, rhs)


VERIFIERS = {
    "sum": verify_sum,
    "product": verify_product,
    "quotient": verify_quotient,
    "chain": verify_chain,
}
