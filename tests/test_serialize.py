"""Stable renderings: fractions, monomials, operators, text reports."""

import json
import random
import sys
from fractions import Fraction

import pytest

from qdm import DiffOp, apply, build_f, euler_ratio, gkz_operator, semiclassical
from qdm import serialize
from qdm.toric import parse_frac


def test_frac_str():
    assert serialize.frac_str(3, 6) == "1/2"
    assert serialize.frac_str(4) == "4"
    assert serialize.frac_str(-2, 1) == "-2"
    assert serialize.frac_str(-5, 10) == "-1/2"
    assert serialize.frac_str(5, -10) == "-1/2"
    assert serialize.frac_str(0, -3) == "0"
    with pytest.raises(ZeroDivisionError):
        serialize.frac_str(1, 0)


def test_frac_str_prints_as_fraction_does():
    # frac_str prints from ints; Fraction's own str is the oracle, on signs
    # of either side and on numbers past the 4,300-digit str limit, which
    # the CLI lifts
    rng = random.Random(0)
    big = 10 ** 4400 + 7
    cases = [(0, 1), (0, -5), (-6, -4), (6, -4), (big, 3 * big), (-big, 2)]
    for _ in range(300):
        den = 0
        while not den:
            den = rng.randint(-10 ** rng.randint(0, 30), 10 ** rng.randint(0, 30))
        cases.append((rng.randint(-10 ** rng.randint(0, 30), 10 ** rng.randint(0, 30)), den))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for num, den in cases:
            assert serialize.frac_str(num, den) == str(Fraction(num, den)), (num, den)
    finally:
        sys.set_int_max_str_digits(old)


def test_parse_frac():
    assert parse_frac(3) == 3 and type(parse_frac(3)) is int
    assert parse_frac("2/5") == Fraction(2, 5)
    assert parse_frac("-7") == -7 and type(parse_frac("-7")) is int
    assert parse_frac("10/10") == 1 and type(parse_frac("10/10")) is int
    assert parse_frac("-9/6") == Fraction(-3, 2)
    assert parse_frac(Fraction(4, 6)) == Fraction(2, 3)
    assert type(parse_frac(Fraction(-4, 2))) is int
    for bad in (True, 1.5, None, [1], "x", "1/0",
                "1.0", "1e0", " 1 ", "+1", "1_0", "1/-2", "\u0663"):
        with pytest.raises(ValueError):
            parse_frac(bad)
    assert parse_frac(serialize.frac_str(-22, 7)) == Fraction(-22, 7)


@pytest.mark.parametrize("value", [
    {}, [], "", 0, None, True, False, [[]], {"a": {}}, [{}, [], {"b": []}],
    {"x": [1, True, 0, False, None]},  # bool next to int
    {"non-ASCII \u00e9\u4e2d\U0001f600": "\u00fc", "\u2028": ["\ud800"]},
    ["\x00\x01\x1f\x7f", "\t\n\r\b\f", "\"quoted\"", "back\\slash", "/"],
    [-10 ** 40, 10 ** 40, -1, -(2 ** 64) + 1],
    {"deep": [[[{"k": [[], {}, "", 0]}]]], "after": 1},
])
def test_render_json_matches_json_dumps(value):
    assert serialize.render_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {1: "a"}, {None: 1}, {"a": {2}}, [Fraction(1, 2)], b"x", [[float("nan")]],
])
def test_render_json_refuses_what_no_report_holds(value):
    with pytest.raises(TypeError):
        serialize.render_json(value)


def test_mono_str():
    assert serialize.mono_str((0, 0, 0)) == "1"
    assert serialize.mono_str((1, 0, 2)) == "x1*x3^2"
    assert serialize.mono_str((0, 1, 0)) == "x2"


def test_class_json_ordering(corpus):
    _fan, _cm, ring, _cone = corpus["p2"]
    cls = ring.one().scale(2) + ring.generator(0)
    data = serialize.class_json(cls)
    assert data == {"1": "2", "x3": "1"}
    assert list(data) == ["1", "x3"]


def test_laurent_json(corpus):
    _fan, cm, ring, _cone = corpus["p1"]
    r1 = euler_ratio(ring, (1,))
    assert serialize.laurent_json(r1, cm.c1_degree((1,))) == [
        {"hbar": -3, "class": {"x2": "-2"}},
        {"hbar": -2, "class": {"1": "1"}},
    ]


def test_series_json_reads_the_series_weight(corpus):
    # hbar * F has weight 1 and the same classes at hbar = 1 as F, so each of
    # its terms sits one power of hbar higher
    _fan, cm, ring, cone = corpus["p2"]
    series = build_f(ring, cone, 6)
    shifted = apply(DiffOp.hbar(cm), series)
    assert shifted.weight == 1
    want = [{"degree": entry["degree"],
             "terms": [{"hbar": term["hbar"] + 1, "class": term["class"]}
                       for term in entry["terms"]]}
            for entry in serialize.series_json(series)]
    assert serialize.series_json(shifted) == want


def test_op_str(corpus):
    _fan, cm, _ring, _cone = corpus["p1"]
    assert serialize.op_str(gkz_operator(cm, (1,))) == "theta1^2 - q1"
    # triples are graded by (q, theta, hbar), so low theta powers come first
    assert serialize.op_str(gkz_operator(cm, (2,))) == \
        "theta1^2*hbar^2 - 2*theta1^3*hbar + theta1^4 - q1^2"
    assert serialize.op_str(DiffOp(cm, 0, {})) == "0"
    assert serialize.op_str(DiffOp.identity(cm)) == "1"
    assert serialize.op_str(DiffOp.hbar(cm).scale(Fraction(1, 2))) == "1/2*hbar"


def test_op_json(corpus):
    _fan, cm, _ring, _cone = corpus["p1"]
    data = serialize.op_json(gkz_operator(cm, (1,)))
    assert data == [
        {"q": [0], "terms": [{"theta": [2], "hbar": 0, "coeff": "1"}]},
        {"q": [1], "terms": [{"theta": [0], "hbar": 0, "coeff": "-1"}]},
    ]
    # theta^2 (theta - hbar)^2 - q^2: each hbar exponent follows from the weight 4
    assert serialize.op_json(gkz_operator(cm, (2,))) == [
        {"q": [0], "terms": [{"theta": [2], "hbar": 2, "coeff": "1"},
                             {"theta": [3], "hbar": 1, "coeff": "-2"},
                             {"theta": [4], "hbar": 0, "coeff": "1"}]},
        {"q": [2], "terms": [{"theta": [0], "hbar": 0, "coeff": "-1"}]},
    ]


def test_relation_str(corpus):
    _fan, cm, _ring, _cone = corpus["p1"]
    assert serialize.relation_str(semiclassical(gkz_operator(cm, (1,)))) == \
        "p1^2 - q1"
    assert serialize.relation_str(DiffOp(cm, 0, {})) == "0"
    assert serialize.relation_str(DiffOp.identity(cm)) == "1"
    _fan, cm, _ring, _cone = corpus["hirzebruch1"]
    assert serialize.relation_str(semiclassical(gkz_operator(cm, (1, 0)))) == \
        "p1^2 - q1*p2 + q1*p1"


def test_render_text_scalars_and_inlining():
    data = {
        "ok": True,
        "failed": False,
        "dims": [1, 2, 1],
        "empty": [],
        "nothing": {},
        "nested": {"a": [10, 20]},
        "rows": [[1, 0], [0, 1]],
    }
    text = serialize.render_text(data)
    lines = text.splitlines()
    assert "ok: true" in lines
    assert "failed: false" in lines
    assert "dims: [1, 2, 1]" in lines
    assert "empty: []" in lines
    assert "nothing: {}" in lines
    assert "  a: [10, 20]" in lines
    assert "rows: [[1, 0], [0, 1]]" in lines


def test_render_text_long_lists_go_multiline():
    data = {"big": [list(range(20)), list(range(20, 40))]}
    text = serialize.render_text(data)
    assert text.splitlines()[0] == "big:"
    assert text.count("\n") >= 2


def reference_inline(value):
    """The inline rule as first written: every part rendered, then the
    parts' total length compared with 60."""
    if not isinstance(value, (dict, list)):
        return serialize._scalar_text(value)
    if isinstance(value, list):
        if not value:
            return "[]"
        parts = [reference_inline(v) for v in value]
        if all(p is not None for p in parts) and sum(len(p) for p in parts) < 60:
            return "[%s]" % ", ".join(parts)
    if isinstance(value, dict) and not value:
        return "{}"
    return None


def _random_value(rng, depth):
    kind = rng.randrange(6 if depth else 3)
    if kind == 0:
        return rng.choice([True, False, None, "x" * rng.randrange(30)])
    if kind in (1, 2):
        return rng.randrange(-10 ** rng.randrange(12), 10 ** rng.randrange(12))
    if kind == 3:
        return {} if rng.random() < 0.5 else {"k": _random_value(rng, depth - 1)}
    return [_random_value(rng, depth - 1) for _ in range(rng.randrange(8))]


def test_inline_matches_the_render_everything_rule():
    rng = random.Random(25)
    for _ in range(2000):
        value = _random_value(rng, 4)
        assert serialize._inline(value) == reference_inline(value), value


def test_inline_stops_at_the_first_part_that_cannot_inline(monkeypatch):
    seen = []
    original = serialize._inline

    def counting(value, budget=60):
        seen.append(value)
        return original(value, budget)
    monkeypatch.setattr(serialize, "_inline", counting)
    deep = [[list(range(5))] * 5] * 5
    assert serialize._inline([{"a": 1}, deep]) is None
    assert seen == [[{"a": 1}, deep], {"a": 1}]
    # the budget is spent on the first part: the second gets what is left
    seen.clear()
    assert serialize._inline(["x" * 59, deep]) is None
    assert seen == [["x" * 59, deep], "x" * 59, deep, deep[0], deep[0][0], 0]
    # the parts' lengths, 57 + len("[7]"), must stay under 60
    assert serialize._inline(["x" * 57, [7]]) is None
    assert serialize._inline(["x" * 56, [7]]) == "[%s, [7]]" % ("x" * 56)


# Rational and unit coefficients: no shipped fan's operator has a non-unit
# rational coefficient, so no golden report covers these renderings.


def _rational_op(cm):
    """-3/2 hbar^2 + theta hbar - theta^2 + 2/3 q on P^1, of weight 2."""
    return DiffOp(cm, 2, {((0,), (0,)): -9, ((0,), (1,)): 6, ((0,), (2,)): -6,
                          ((1,), (0,)): 4}, 6)


def test_op_str_rational_coefficients(corpus):
    _fan, cm, _ring, _cone = corpus["p1"]
    op = _rational_op(cm)
    assert serialize.op_str(op) == "-3/2*hbar^2 + theta1*hbar - theta1^2 + 2/3*q1"
    assert serialize.op_str(op.scale(-1)) == \
        "3/2*hbar^2 - theta1*hbar + theta1^2 - 2/3*q1"
    mixed = DiffOp(cm, 2, {((0,), (1,)): 5, ((0,), (2,)): -4, ((1,), (0,)): 4}, 4)
    assert serialize.op_str(mixed) == "5/4*theta1*hbar - theta1^2 + q1"
    for c, den, text in ((-5, 3, "-5/3"), (7, 4, "7/4"), (-1, 1, "-1"), (1, 1, "1")):
        assert serialize.op_str(DiffOp(cm, 0, {((0,), (0,)): c}, den)) == text


def test_relation_str_rational_coefficients(corpus):
    _fan, cm, _ring, _cone = corpus["p1"]
    assert serialize.relation_str(semiclassical(_rational_op(cm))) == "-p1^2 + 2/3*q1"
    assert serialize.relation_str(semiclassical(_rational_op(cm).scale(-1))) == \
        "p1^2 - 2/3*q1"
    for c, den, text in ((-5, 3, "-5/3"), (7, 4, "7/4"), (-1, 1, "-1")):
        assert serialize.relation_str(DiffOp(cm, 0, {((0,), (0,)): c}, den)) == text


def test_op_json_rational_coefficients(corpus):
    _fan, cm, _ring, _cone = corpus["p1"]
    assert serialize.op_json(_rational_op(cm)) == [
        {"q": [0], "terms": [{"theta": [0], "hbar": 2, "coeff": "-3/2"},
                             {"theta": [1], "hbar": 1, "coeff": "1"},
                             {"theta": [2], "hbar": 0, "coeff": "-1"}]},
        {"q": [1], "terms": [{"theta": [0], "hbar": 0, "coeff": "2/3"}]},
    ]
    assert serialize.op_json(DiffOp(cm, 0, {((0,), (0,)): -5}, 3)) == [
        {"q": [0], "terms": [{"theta": [0], "hbar": 0, "coeff": "-5/3"}]}]
    assert serialize.op_json(DiffOp.identity(cm).scale(-1)) == [
        {"q": [0], "terms": [{"theta": [0], "hbar": 0, "coeff": "-1"}]}]
    assert serialize.op_json(DiffOp(cm, 0, {})) == []


def test_class_and_laurent_json_rational_coefficients(corpus):
    _fan, _cm, ring, _cone = corpus["p2"]
    x = ring.generator(0)
    cls = ring.one().scale(Fraction(-3, 2)) + x.scale(Fraction(2, 4)) + x * x
    assert serialize.class_json(cls) == {"1": "-3/2", "x3": "1/2", "x3^2": "1"}
    assert serialize.laurent_json(cls, 1) == [
        {"hbar": -3, "class": {"x3^2": "1"}},
        {"hbar": -2, "class": {"x3": "1/2"}},
        {"hbar": -1, "class": {"1": "-3/2"}},
    ]
    unit = x.scale(Fraction(-1, 3)) - ring.one()
    assert serialize.class_json(unit) == {"1": "-1", "x3": "-1/3"}
    assert serialize.laurent_json(unit, 0) == [
        {"hbar": -1, "class": {"x3": "-1/3"}},
        {"hbar": 0, "class": {"1": "-1"}},
    ]
    assert serialize.class_json(ring.zero()) == {}
    assert serialize.laurent_json(ring.zero(), 1) == []
