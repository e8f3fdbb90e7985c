"""Limit-free tangents and derivatives for polynomials over exact rationals.

The core idea: a line is tangent to a polynomial f at x = p exactly
when (x - p)**2 divides f(x) - (k*x + b).  Everything else follows from
that divisibility criterion by exact arithmetic: the unique tangent at
every rational point (with a verifiable cofactor certificate), the
derivative as a polynomial in its own right, the differentiation rules
as checked identities, and the classical difference-quotient behaviour
as an exact linear decomposition with a higher-order remainder.
"""

from .decomposition import (
    Decomposition,
    QuotientRow,
    decompose,
    increment,
    quotient_table,
    remainder_valuation,
)
from .dual import (
    ELEMENTARY_TAGS,
    DomainError,
    Dual,
    eval_elementary,
    eval_poly,
)
from .parser import (
    LoweringError,
    ParseError,
    lower_poly,
    lower_ratfun,
    parse,
)
from .polynomial import (
    ONE,
    X,
    ZERO,
    Polynomial,
    RationalFunction,
    polynomial_gcd,
)
from .rational import to_decimal
from .rules import (
    RuleReport,
    verify_chain,
    verify_product,
    verify_quotient,
    verify_sum,
)
from .tangency import (
    INFINITE,
    CertificateError,
    TangentLine,
    derivative,
    intersection_multiplicity,
    is_tangent,
    ratfun_derivative,
    tangent_at,
    taylor_shift,
)

__version__ = "0.1.0"
