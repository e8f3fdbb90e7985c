"""What the package namespace gives to a star import."""

from types import ModuleType

# Every public name the package imports from its modules.
PUBLIC = {
    "CertificateError", "Decomposition", "DomainError", "Dual", "ELEMENTARY_TAGS",
    "ElementaryFn", "INFINITE", "LinearFunction", "LoweringError", "ONE", "ParseError",
    "Polynomial", "QuotientRow", "RationalFunction", "RuleReport", "TangentLine", "X", "ZERO",
    "decompose", "derivative", "differential", "eval_elementary", "eval_poly", "increment",
    "intersection_multiplicity", "is_tangent", "lower_poly", "lower_ratfun", "parse",
    "polynomial_gcd", "quotient_table", "ratfun_derivative", "remainder_valuation",
    "secant_slope", "tangent_at", "taylor_shift", "to_decimal", "verify_chain",
    "verify_product", "verify_quotient", "verify_sum",
}


def test_star_import_gives_every_public_name_and_otherwise_only_submodules():
    namespace: dict = {}
    exec("from polytangent import *", namespace)
    names = set(namespace) - {"__builtins__"}
    assert PUBLIC <= names
    assert all(isinstance(namespace[name], ModuleType) for name in names - PUBLIC)


def test_version_is_importable_by_name():
    from polytangent import __version__

    assert __version__ == "0.1.0"
