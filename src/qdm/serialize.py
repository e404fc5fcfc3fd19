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
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append("x%d" % (i + 1))
        elif e > 1:
            parts.append("x%d^%d" % (i + 1, e))
    return "*".join(parts) if parts else "1"


def class_json(cls) -> dict:
    """A cohomology class as {monomial string: 'p/q'}, graded-lex ordered."""
    return {mono_str(m): frac_str(cls.coeffs[m])
            for m in sorted(cls.coeffs, key=mono_key)}


def laurent_json(cls, c1) -> list:
    """A q^d coefficient of weight 0, given as its class at hbar = 1 and
    c1 = c1(d), as [{hbar, class}] in ascending hbar.  By the weight rule
    the monomial m carries hbar^(-c1 - deg m)."""
    by_hbar = {}
    for m in sorted(cls.coeffs, key=mono_key):
        by_hbar.setdefault(-c1 - sum(m), {})[mono_str(m)] = frac_str(cls.coeffs[m])
    return [{"hbar": h, "class": by_hbar[h]} for h in sorted(by_hbar)]


def series_json(series) -> list:
    return [{"degree": list(d),
             "terms": laurent_json(series.coefficients[d], series.cm.c1_degree(d))}
            for d in series.degrees]


def component_json(comp, cm) -> list:
    """component() output as [{degree, terms: [{log, hbar, coeff}]}]."""
    out = []
    for d in sorted(comp, key=lambda d: (cm.c1_degree(d), d)):
        terms = [{"log": list(t), "hbar": h, "coeff": frac_str(c)}
                 for (t, h), c in sorted(comp[d].items())]
        out.append({"degree": list(d), "terms": terms})
    return out


def op_json(op) -> list:
    """Operator as [{q: [...], terms: [{theta, hbar, coeff}]}], q-support sorted."""
    out = []
    for e in sorted(op.terms, key=lambda e: (sum(e), e)):
        entries = [{"theta": list(t), "hbar": op.hbar_power(e, t), "coeff": frac_str(c)}
                   for t, c in sorted(op.terms[e].items(),
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


def op_str(op) -> str:
    """Human-readable operator, e.g. 'theta1^3 - q1'."""
    rendered = []
    for (e, t, h) in op.support_triples():
        factors = [s for s in (_power_str("q", e), _power_str("theta", t)) if s]
        if h == 1:
            factors.append("hbar")
        elif h > 1:
            factors.append("hbar^%d" % h)
        rendered.append((op.coefficient(e, t, h), "*".join(factors)))
    return _signed_join(rendered)


def relation_str(rel) -> str:
    """Human-readable quantum relation, e.g. 'p1^3 - q1'."""
    rendered = []
    for (e, t), c in rel.sorted_terms():
        factors = [s for s in (_power_str("q", e), _power_str("p", t)) if s]
        rendered.append((c, "*".join(factors)))
    return _signed_join(rendered)


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
