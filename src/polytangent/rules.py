"""The differentiation rules, verified as exact algebraic identities.

The derivative construction never dispatches on expression structure,
so sum, product, quotient, and chain rules are theorems about it rather
than baked-in rewrite rules.  Each verifier computes both sides
independently and reports whether they agree in canonical form; a
failing report anywhere is a bug.
"""

from __future__ import annotations

from collections import namedtuple

from .polynomial import Polynomial, RationalFunction
from .tangency import derivative, ratfun_derivative

class RuleReport(namedtuple("RuleReport", "rule lhs rhs")):
    """Both sides of one rule identity; `holds` is equality of canonical forms."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def verify_sum(f: Polynomial, g: Polynomial) -> RuleReport:
    """(f + g)' versus f' + g'."""
    lhs = RationalFunction(derivative(f + g))
    rhs = RationalFunction(derivative(f) + derivative(g))
    return RuleReport("sum", lhs, rhs)


def verify_product(f: Polynomial, g: Polynomial) -> RuleReport:
    """(f*g)' versus f'*g + f*g'."""
    lhs = RationalFunction(derivative(f * g))
    rhs = RationalFunction(derivative(f) * g + f * derivative(g))
    return RuleReport("product", lhs, rhs)


def verify_quotient(f: Polynomial, g: Polynomial) -> RuleReport:
    """(f/g)' versus (f'*g - f*g')/g**2, for nonzero g."""
    if not g:
        raise ZeroDivisionError("quotient rule needs a nonzero denominator")
    lhs = ratfun_derivative(RationalFunction(f, g))
    rhs = RationalFunction(derivative(f) * g - f * derivative(g), g * g)
    return RuleReport("quotient", lhs, rhs)


def verify_chain(f: Polynomial, g: Polynomial) -> RuleReport:
    """(f(g(x)))' versus f'(g(x)) * g'(x)."""
    lhs = RationalFunction(derivative(f(g)))
    rhs = RationalFunction(derivative(f)(g) * derivative(g))
    return RuleReport("chain", lhs, rhs)


VERIFIERS = {
    "sum": verify_sum,
    "product": verify_product,
    "quotient": verify_quotient,
    "chain": verify_chain,
}
