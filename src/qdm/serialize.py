"""Stable JSON-ready and text renderings of the library's values.

Every ordering here is fixed (graded-lexicographic), so identical inputs
always produce byte-identical output.  Rationals are rendered in lowest
terms as "p/q", integers without the denominator.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import mono_key


def frac_str(x) -> str:
    return str(Fraction(x))


def mono_str(mono) -> str:
    """Monomial in the ray divisor generators, e.g. '1', 'x1*x3^2'."""
    return _power_str("x", mono) or "1"


def class_json(cls) -> dict:
    """A cohomology class as {monomial string: 'p/q'}, graded-lex ordered."""
    coeffs = cls.coeffs
    return {mono_str(m): str(coeffs[m]) for m in sorted(coeffs, key=mono_key)}


def laurent_json(cls, c1) -> list:
    """A q^d coefficient of weight w, given as its class at hbar = 1 and
    c1 = c1(d) - w, as [{hbar, class}] in ascending hbar.  By the weight rule
    the monomial m carries hbar^(w - c1(d) - deg m) = hbar^(-c1 - deg m)."""
    by_hbar = {}
    coeffs = cls.coeffs
    for m in sorted(coeffs, key=mono_key):
        by_hbar.setdefault(-c1 - sum(m), {})[mono_str(m)] = str(coeffs[m])
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
             "terms": [{"log": list(t), "hbar": h, "coeff": frac_str(c)}
                       for (t, h), c in sorted(entry.items())]}
            for d, entry in comp.items()]


def op_json(op) -> list:
    """Operator as [{q: [...], terms: [{theta, hbar, coeff}]}], q-support sorted."""
    out = []
    den = op.den
    for e in sorted(op.num, key=lambda e: (sum(e), e)):
        entries = [{"theta": list(t), "hbar": op.hbar_power(e, t),
                    "coeff": str(Fraction(c, den))}
                   for t, c in sorted(op.num[e].items(),
                                      key=lambda kv: (sum(kv[0]), kv[0]))]
        out.append({"q": list(e), "terms": entries})
    return out


def _power_str(sym, exps) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append("%s%d" % (sym, i + 1))
        elif e > 1:
            parts.append("%s%d^%d" % (sym, i + 1, e))
    return "*".join(parts)


def _signed_join(rendered) -> str:
    """Join (coefficient, monomial-string) pairs into a readable polynomial."""
    text = ""
    for coeff, mono in rendered:
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = mono if mag == 1 and mono else (frac_str(mag) if not mono
                                               else "%s*%s" % (frac_str(mag), mono))
        if not text:
            text = body if sign == "+" else "-" + body
        else:
            text += " %s %s" % (sign, body)
    return text or "0"


def _op_text(op, theta) -> str:
    rendered = []
    for (e, t, h) in op.support_triples():
        factors = [s for s in (_power_str("q", e), _power_str(theta, t)) if s]
        if h == 1:
            factors.append("hbar")
        elif h > 1:
            factors.append("hbar^%d" % h)
        rendered.append((op.coefficient(e, t, h), "*".join(factors)))
    return _signed_join(rendered)


def op_str(op) -> str:
    """Human-readable operator, e.g. 'theta1^3 - q1'."""
    return _op_text(op, "theta")


def relation_str(rel) -> str:
    """Human-readable quantum relation, the operator semiclassical(op) with
    p_j for theta_j, e.g. 'p1^3 - q1'."""
    return _op_text(rel, "p")


def _inline(value) -> str | None:
    """Compact one-line form for scalars and shallow lists, else None."""
    if not isinstance(value, (dict, list)):
        return _scalar_text(value)
    if isinstance(value, list):
        if not value:
            return "[]"
        parts = [_inline(v) for v in value]
        if all(p is not None for p in parts) and sum(len(p) for p in parts) < 60:
            return "[%s]" % ", ".join(parts)
    if isinstance(value, dict) and not value:
        return "{}"
    return None


def render_text(data, indent: int = 0) -> str:
    """Plain-text view of a JSON-ready structure, stable line order."""
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for key, value in data.items():
            short = _inline(value)
            if short is not None:
                lines.append("%s%s: %s" % (pad, key, short))
            else:
                lines.append("%s%s:" % (pad, key))
                lines.append(render_text(value, indent + 1))
    elif isinstance(data, list):
        for value in data:
            short = _inline(value)
            if short is not None:
                lines.append("%s- %s" % (pad, short))
            else:
                lines.append("%s-" % pad)
                lines.append(render_text(value, indent + 1))
    else:
        lines.append("%s%s" % (pad, _scalar_text(data)))
    return "\n".join(lines)


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
