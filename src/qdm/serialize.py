"""Stable JSON-ready and text renderings of the library's values.

Every ordering here is fixed (graded-lexicographic), so identical inputs
always produce byte-identical output.  Rationals are rendered in lowest
terms as "p/q", integers without the denominator.  A report is written as
JSON by render_json and as text by render_text.
"""

from __future__ import annotations

from itertools import groupby, repeat
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter

from .cohomology import mono_key


def frac_str(num, den=1) -> str:
    """The int ratio num / den in lowest terms as 'p/q', the sign on p, or
    'p' when integral; every rational in a report is printed here."""
    if not den:
        raise ZeroDivisionError("frac_str(%d, 0)" % num)
    g = gcd(num, den)
    if den < 0:
        g = -g
    num, den = num // g, den // g
    return "%d/%d" % (num, den) if den != 1 else "%d" % num


def mono_str(mono) -> str:
    """Monomial in the ray divisor generators, e.g. '1', 'x1*x3^2'."""
    return _power_str("x", mono) or "1"


def class_json(cls) -> dict:
    """A cohomology class as {monomial string: 'p/q'}, graded-lex ordered."""
    num, den = cls.num, cls.den
    return {mono_str(m): frac_str(num[m], den) for m in sorted(num, key=mono_key)}


def laurent_json(cls, c1) -> list:
    """A q^d coefficient of weight w, given as its class at hbar = 1 and
    c1 = c1(d) - w, as [{hbar, class}] in ascending hbar.  By the weight rule
    the monomial m carries hbar^(w - c1(d) - deg m) = hbar^(-c1 - deg m)."""
    by_hbar = {}
    num, den = cls.num, cls.den
    for m in sorted(num, key=mono_key):
        by_hbar.setdefault(-c1 - sum(m), {})[mono_str(m)] = frac_str(num[m], den)
    return [{"hbar": h, "class": by_hbar[h]} for h in sorted(by_hbar)]


def series_json(series) -> list:
    """Each q^d coefficient by laurent_json, at c1(d) - series.weight."""
    c1 = series.ring.cm.c1_degree
    return [{"degree": list(d),
             "terms": laurent_json(series.coefficients[d], c1(d) - series.weight)}
            for d in series.degrees]


def component_json(comp) -> list:
    """component() output, in its degree order, as
    [{degree, terms: [{log, hbar, coeff}]}]."""
    return [{"degree": list(d),
             "terms": [{"log": list(t), "hbar": h, "coeff": frac_str(num, den)}
                       for (t, h), (num, den) in sorted(entry.items())]}
            for d, entry in comp.items()]


def op_json(op) -> list:
    """Operator as [{q: [...], terms: [{theta, hbar, coeff}]}], q-support sorted."""
    den = op.den
    return [{"q": list(e), "terms": [{"theta": list(t), "hbar": h, "coeff": frac_str(c, den)}
                                     for _, t, h, c in terms]}
            for e, terms in groupby(op.walk(), itemgetter(0))]


def _power_str(sym, exps) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append("%s%d" % (sym, i + 1))
        elif e > 1:
            parts.append("%s%d^%d" % (sym, i + 1, e))
    return "*".join(parts)


def _op_text(op, theta) -> str:
    """The terms of op as a signed sum, a magnitude 1 left off a monomial."""
    den = op.den
    text = ""
    for e, t, h, c in op.walk():
        factors = [s for s in (_power_str("q", e), _power_str(theta, t)) if s]
        if h == 1:
            factors.append("hbar")
        elif h > 1:
            factors.append("hbar^%d" % h)
        if abs(c) != den or not factors:
            factors.insert(0, frac_str(abs(c), den))
        body = "*".join(factors)
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = "-" + body if c < 0 else body
    return text or "0"


def op_str(op) -> str:
    """Human-readable operator, e.g. 'theta1^3 - q1'."""
    return _op_text(op, "theta")


def relation_str(rel) -> str:
    """Human-readable quantum relation, the operator semiclassical(op) with
    p_j for theta_j, e.g. 'p1^3 - q1'."""
    return _op_text(rel, "p")


def render_json(data) -> str:
    """data as json.dumps(data, indent=2) writes it, byte for byte, for the
    report's value types: dicts with str keys, lists, str, int, bool and
    None; any other value raises TypeError.  (With indent set, json.dumps
    runs the stdlib's pure-Python encoder, about twice as slow on the large
    series reports.)"""
    out = []
    _json_parts(data, "\n", out)
    return "".join(out)


def _json_scalar(value) -> str:
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError("a report holds no %s: %r" % (kind.__name__, value))


def _json_parts(value, newline, out):
    """Append the pieces of value, its lines indented under newline."""
    kind = type(value)
    if kind is dict:
        pairs, opener, closer = value.items(), "{", "}"
    elif kind is list:
        pairs, opener, closer = zip(repeat(""), value), "[", "]"
    else:
        out.append(_json_scalar(value))
        return
    if not value:
        out.append(opener + closer)
        return
    inner = newline + "  "
    sep, comma = opener + inner, "," + inner
    for key, item in pairs:
        if kind is dict:
            if type(key) is not str:
                raise TypeError("a report key must be a str, not %r" % (key,))
            key = encode_basestring_ascii(key) + ": "
        item_kind = type(item)
        if item_kind is str:
            out.append(sep + key + encode_basestring_ascii(item))
        elif item_kind is int:
            out.append(sep + key + int.__repr__(item))
        elif item_kind is dict or item_kind is list:
            out.append(sep + key)
            _json_parts(item, inner, out)
        else:
            out.append(sep + key + _json_scalar(item))
        sep = comma
    out.append(newline + closer)


def _inline(value, budget=60) -> str | None:
    """Compact one-line form for scalars, empty dicts and lists whose parts
    have fewer than budget characters in all, else None.  It stops at the
    first part that cannot inline or spends the budget, and a part gets only
    what is left of it."""
    if isinstance(value, dict):
        return None if value else "{}"
    if not isinstance(value, list):
        return _scalar_text(value)
    parts = []
    for v in value:
        part = _inline(v, budget)
        if part is None or len(part) >= budget:
            return None
        budget -= len(part)
        parts.append(part)
    return "[%s]" % ", ".join(parts)


def render_text(data, indent: int = 0) -> str:
    """Plain-text view of a JSON-ready structure, stable line order."""
    pad = "  " * indent
    if isinstance(data, dict):
        items = [("%s:" % key, value) for key, value in data.items()]
    elif isinstance(data, list):
        items = [("-", value) for value in data]
    else:
        return pad + _scalar_text(data)
    lines = []
    for head, value in items:
        short = _inline(value)
        if short is not None:
            lines.append("%s%s %s" % (pad, head, short))
        else:
            lines += [pad + head, render_text(value, indent + 1)]
    return "\n".join(lines)


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
