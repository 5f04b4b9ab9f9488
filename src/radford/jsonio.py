"""JSON encode/decode for every kernel value, plus the shipped schemas.

A scalar travels as an array of phi(m) canonical rational strings, each
``p`` or ``p/q`` in lowest terms: exactly the strings of the schemas'
pattern ^-?[0-9]+(/[0-9]+)?$ are read back.  Every aggregate carries a
context header {"n": ..., "m": ...}.  Decoders rebuild values through
the ordinary constructors, so a ``diag`` or ``matrix2`` star must lie in
the paper's family; n, m, r, s, l are integers as the schemas read them
and no element lists a monomial twice, else KernelError, a usage error
to the CLI.  A star is written as its images, read from any spelling.
"""

from __future__ import annotations

import math
import re

from . import coalgebra, star
from .algebra import Element, Monomial
from .errors import KernelError
from .scalars import MAX_INPUT_DIGITS, CyclotomicScalar, _meter, make_context


def context_to_json(ctx):
    return {"n": ctx.n, "m": ctx.m}


def _schema_int(obj, key):
    """obj[key] if the schemas read it as an integer: 3 or 3.0, not "3"."""
    v = obj[key]
    if type(v) is int or isinstance(v, float) and v.is_integer():
        return int(v)
    raise TypeError(f"{key} must be an integer, got {v!r}")


def context_from_json(obj):
    if not isinstance(obj, dict):
        raise KernelError("bad context header: it must be a JSON object")
    try:
        return make_context(_schema_int(obj, "n"), _schema_int(obj, "m"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise KernelError(f"bad context header: {exc}") from exc


def scalar_to_json(c):
    # Every coordinate is written, zeros too, and each is a JSON string.
    _meter.charge(20 + 3 * c.ctx.degree)
    return c.coord_texts()


def scalar_from_json(ctx, obj):
    if not isinstance(obj, list):
        raise KernelError("bad scalar coordinates: expected a list of strings")
    pairs = []
    for text in obj:
        if isinstance(text, str) and len(text) > MAX_INPUT_DIGITS:
            raise KernelError(
                f"scalar coordinate longer than {MAX_INPUT_DIGITS} digits")
        if not isinstance(text, str) or not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
            raise KernelError(f"bad scalar coordinates: {text!r} is not p or p/q")
        p, _, q = text.partition("/")
        if q and not int(q):
            raise KernelError(f"bad scalar coordinates: zero denominator in {text!r}")
        pairs.append((int(p), int(q or 1)))
    if len(pairs) != ctx.degree:
        raise KernelError(f"expected {ctx.degree} coordinates, got {len(pairs)}")
    den = math.lcm(*(q for _, q in pairs))
    return CyclotomicScalar(ctx, [p * (den // q) for p, q in pairs], den)


def _mono_to_json(mono):
    return {"r": mono.r, "s": mono.s, "l": mono.l}


def _mono_from_json(ctx, obj):
    """A basis monomial y^r x^s g^l; each exponent must lie in [0, n)."""
    try:
        mono = Monomial(*(_schema_int(obj, key) for key in "rsl"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise KernelError(f"bad monomial: {exc}") from exc
    if not all(0 <= k < ctx.n for k in mono):
        raise KernelError(f"monomial exponents {tuple(mono)} outside [0, {ctx.n})")
    return mono


def _term_objects(obj):
    terms = obj.get("terms", []) if isinstance(obj, dict) else None
    if not isinstance(terms, list) or not all(isinstance(t, dict) for t in terms):
        raise KernelError("expected a JSON object with a list of term objects")
    return terms


def element_to_json(e):
    terms = []
    for mono, c in e.sorted_terms():
        t = _mono_to_json(mono)
        t["coeff"] = scalar_to_json(c)
        terms.append(t)
    return {"context": context_to_json(e.ctx), "terms": terms}


def element_from_json(obj, ctx=None):
    term_objs = _term_objects(obj)
    if ctx is None:
        ctx = context_from_json(obj.get("context", {}))
    terms = {}
    for t in term_objs:
        mono = _mono_from_json(ctx, t)
        if mono in terms:
            raise KernelError(f"monomial {mono} appears twice in one element")
        terms[mono] = scalar_from_json(ctx, t.get("coeff", []))
    return Element(ctx, terms)


def tensor_to_json(t):
    terms = [{"left": _mono_to_json(left), "right": _mono_to_json(right),
              "coeff": scalar_to_json(c)} for (left, right), c in t.sorted_terms()]
    return {"context": context_to_json(t.ctx), "terms": terms}


_IMAGES = ("g_img", "x_img", "y_img")


def star_to_json(st):
    """A star as its images, the ``raw`` spelling every star has."""
    return {"kind": "raw", "context": context_to_json(st.ctx),
            **{key: element_to_json(getattr(st, key)) for key in _IMAGES}}


def star_context(obj):
    """The context a star-structure object declares in its header."""
    if not isinstance(obj, dict):
        raise KernelError("bad star structure: it must be a JSON object")
    try:
        return context_from_json(obj["context"])
    except KeyError as exc:
        raise KernelError(f"bad star structure: {exc}") from exc


def star_from_json(obj, ctx):
    """Decode a star structure into ``ctx``.

    Each value is read in the object's own context and embedded in
    ``ctx``, whose conductor must be a multiple of the object's.
    """
    own = star_context(obj)
    try:
        kind = obj["kind"]
    except KeyError as exc:
        raise KernelError(f"bad star structure: {exc}") from exc

    def scalar(v):
        return scalar_from_json(own, v).embed(ctx)

    def element(v):
        return element_from_json(v, own).embed(ctx)

    try:
        if kind == "diag":
            values = (scalar(obj["alpha"]), ctx.zero, ctx.zero, scalar(obj["beta"]))
        elif kind == "matrix2":
            entries = obj["a"]
            if not isinstance(entries, list) or len(entries) != 4:
                raise KernelError("matrix star needs a list of exactly 4 entries")
            values = tuple(scalar(c) for c in entries)
        elif kind == "raw":
            return star.GeneratorMap(ctx, *(element(obj[key]) for key in _IMAGES))
        else:
            raise KernelError(f"unknown star kind {kind!r}")
    except KeyError as exc:
        raise KernelError(f"{kind} star is missing {exc}") from exc
    return star.make_star_matrix(ctx, values)


def _value_to_json(v):
    if isinstance(v, Element):
        return {"type": "element", "value": element_to_json(v)}
    if isinstance(v, coalgebra.TensorElement):
        return {"type": "tensor", "value": tensor_to_json(v)}
    # Else a SparseTerms over monomial triples, from the coassociativity check.
    terms = [{"first": _mono_to_json(a), "second": _mono_to_json(b),
              "third": _mono_to_json(c), "coeff": scalar_to_json(coeff)}
             for (a, b, c), coeff in v.sorted_terms()]
    return {"type": "triple_tensor", "value": {"terms": terms}}


def counterexample_to_json(ce):
    kind, at = ce.location
    out = {}
    if kind == "monomial":
        out["monomial"] = _mono_to_json(at)
    else:
        out["pair"] = [_mono_to_json(at[0]), _mono_to_json(at[1])]
    out["lhs"] = _value_to_json(ce.lhs)
    out["rhs"] = _value_to_json(ce.rhs)
    return out


def report_to_json(report):
    def entry(c):
        ce = c.counterexample
        return {"name": c.name, "pass": c.passed,
                "counterexample": None if ce is None else counterexample_to_json(ce)}
    return {"checks": [entry(c) for c in report.checks]}


def equivalence_to_json(phi):
    """The answer "equivalent", carried by its verified witness phi: its
    2x2 matrix at n = 2, else its diagonal, which is all of it there."""
    n2, lam = phi.ctx.n == 2, [scalar_to_json(c) for c in phi.matrix]
    entries = {"lambda": lam} if n2 else {"lambda1": lam[0], "lambda2": lam[3]}
    return {"equivalent": True, "witness": {"kind": "matrix2" if n2 else "diag",
                                            "context": context_to_json(phi.ctx), **entries}}


def skew_to_json(vectors):
    return {
        "dimension": len(vectors),
        "basis": [element_to_json(v) for v in vectors],
    }


def scan_to_json(survivors):
    return {"survivors": [star_to_json(st) for st in survivors]}
