"""The immutable value types: construction, equality, hashing, repr, no assignment."""

from fractions import Fraction

import pytest

from polytangent.decomposition import Decomposition, QuotientRow
from polytangent.dual import Dual
from polytangent.polynomial import Polynomial, X
from polytangent.rules import RuleReport
from polytangent.tangency import TangentLine

# (type, field values in declaration order, as the instance stores them)
VALUES = [
    (TangentLine, {"point": Fraction(3), "slope": Fraction(6), "intercept": Fraction(-9),
                   "cofactor": Polynomial([1])}),
    (Decomposition, {"x0": Fraction(3), "value": Fraction(9), "slope": Fraction(6),
                     "remainder": X**2}),
    (QuotientRow, {"h": Fraction(1, 10), "dy": Fraction(61, 100), "quotient": Fraction(61, 10),
                   "gap": Fraction(1, 10)}),
    (Dual, {"real": Fraction(1, 2), "eps": Fraction(-3)}),
    (RuleReport, {"rule": "sum", "lhs": 2 * X, "rhs": 2 * X}),
]


@pytest.mark.parametrize("cls, fields", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
class TestValueType:
    def test_positional_and_keyword_construction_agree(self, cls, fields):
        a, b = cls(*fields.values()), cls(**fields)
        assert a == b
        assert hash(a) == hash(b)
        for name, value in fields.items():
            assert getattr(a, name) == value

    def test_repr_names_every_field(self, cls, fields):
        body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({body})"

    def test_fields_cannot_be_assigned(self, cls, fields):
        value = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = None
        assert value == cls(**fields)

