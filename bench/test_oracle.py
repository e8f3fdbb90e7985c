"""The oracle accepts the CLI goldens and rejects every one-character corruption.

    python3 -m pytest -q bench/test_oracle.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import layertrace
import oracle

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _spec(command, expr, **values):
    spec = {"command": command, "json": True, "exit": 0,
            "f": [(oracle.read_poly(expr), 1)]}
    spec.update({k: v if isinstance(v, int) and k == "steps" else Fraction(v)
                 for k, v in values.items()})
    return spec


GOLDEN_SPECS = {
    "tangent.json": _spec("tangent", "x^2", p=3),
    "derive.json": _spec("derive", "x^3"),
    "check.json": _spec("check", "x^2", k=5, b=-6, p=3),
    "decompose.json": _spec("decompose", "x^2", p=3),
    "table.json": _spec("table", "x^2", x0=3, steps=3),
}


def _corruptions(text):
    for i, ch in enumerate(text):
        yield i, text[:i] + chr(ord(ch) ^ 1) + text[i + 1:]


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_accepts_golden(name):
    oracle.check(GOLDEN_SPECS[name], 0, (GOLDEN / name).read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_rejects_every_one_character_corruption(name):
    text = (GOLDEN / name).read_text()
    accepted = []
    for i, corrupted in _corruptions(text):
        try:
            oracle.check(GOLDEN_SPECS[name], 0, corrupted)
        except oracle.OracleError:
            continue
        accepted.append((i, corrupted[max(i - 10, 0):i + 10]))
    assert not accepted


def test_rejects_wrong_exit_code():
    with pytest.raises(oracle.OracleError):
        oracle.check(GOLDEN_SPECS["derive.json"], 2, (GOLDEN / "derive.json").read_text())


@pytest.mark.parametrize("text", ["x^2 + -1", "1*x", "x^1", "x + x^2", "2/4*x", "+x", "x^2 +1"])
def test_reader_rejects_non_canonical_text(text):
    with pytest.raises(oracle.OracleError):
        oracle.read_poly(text)


def test_reader_reads_canonical_text():
    assert oracle.read_poly("-3/7*x^3 + x - 5") == [-5, 1, 0, Fraction(-3, 7)]
    assert oracle.read_poly("t^2", "t") == [0, 0, 1]
    assert oracle.read_ratfun("(x + 1)/(x^2 - 2)") == ([1, 1], [-2, 0, 1])
    assert oracle.read_ratfun("3/7/x^2") == ([Fraction(3, 7)], [0, 0, 1])


def test_taylor_shift_matches_horner_expansion():
    f = [Fraction(n, d) for n, d in [(3, 2), (-1, 5), (0, 1), (7, 3), (2, 9)]]
    p = Fraction(-4, 3)
    shifted = oracle.taylor_shift(f, p)
    t = Fraction(5, 11)
    assert oracle.horner(shifted, t) == oracle.horner(f, p + t)


def test_coprime():
    x1, x2 = [Fraction(-1), Fraction(1)], [Fraction(-2), Fraction(1)]
    assert oracle.coprime(oracle.pmul(x1, x1), x2)
    assert not oracle.coprime(oracle.pmul(x1, x2), oracle.pmul(x2, x2))


def test_benchmark_json_lists_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    printed = {name: (unit, better) for name, _, _, unit, better, _ in layertrace.PER_LAYER}
    printed.update({f"import.{m}.self_s": ("s", "lower") for m in layertrace.MODULES})
    printed["trace.overhead_ratio"] = ("ratio", "lower")
    assert per_layer == printed
