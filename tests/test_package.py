"""What the package namespace gives to a star import, and README's quick start."""

from fractions import Fraction
from pathlib import Path
from types import ModuleType

# Every public name the package imports from its modules.
PUBLIC = {
    "CertificateError", "Decomposition", "DomainError", "Dual", "ELEMENTARY_TAGS",
    "INFINITE", "LoweringError", "ONE", "ParseError", "Polynomial",
    "QuotientRow", "RationalFunction", "RuleReport", "TangentLine", "X", "ZERO", "decompose",
    "derivative", "eval_elementary", "eval_poly", "increment", "intersection_multiplicity",
    "is_tangent", "lower_poly", "lower_ratfun", "parse", "polynomial_gcd", "quotient_table",
    "ratfun_derivative", "remainder_valuation", "tangent_at", "taylor_shift", "to_decimal",
    "verify_chain", "verify_product", "verify_quotient", "verify_sum",
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


def test_readme_quick_start_does_what_its_comments_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    t, d, f = namespace["t"], namespace["d"], namespace["f"]
    assert (t.slope, t.intercept, str(t.cofactor)) == (12, -16, "x + 4")
    assert str(namespace["derivative"](f)) == "3*x^2"
    assert (d.value, d.slope, d.remainder.coeffs) == (1, 3, (0, 0, 3, 1))
    rows = namespace["quotient_table"](f, 1, 3)
    assert [r.h for r in rows] == [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)]
