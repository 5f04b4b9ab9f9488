"""JSON encode/decode for every kernel value, plus the shipped schemas.

A scalar travels as an array of phi(m) canonical rational strings, each
``p`` or ``p/q`` in lowest terms: exactly the strings of the schemas'
pattern ^-?[0-9]+(/[0-9]+)?$ are read back.  Every aggregate carries a
context header {"n": ..., "m": ...}.  Decoders rebuild values through
the ordinary constructors so invariants (norm-one parameters,
conj(A)A = I2) are re-enforced on load; malformed input raises
KernelError, which the CLI maps to a usage error.
"""

from __future__ import annotations

import math
import re

from . import coalgebra, star
from .algebra import Element, Monomial
from .errors import KernelError
from .scalars import MAX_INPUT_DIGITS, CyclotomicScalar, make_context


def context_to_json(ctx):
    return {"n": ctx.n, "m": ctx.m}


def context_from_json(obj):
    try:
        return make_context(int(obj["n"]), int(obj["m"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise KernelError(f"bad context header: {exc}") from exc


def scalar_to_json(c):
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
        mono = Monomial(int(obj["r"]), int(obj["s"]), int(obj["l"]))
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
        terms[mono] = scalar_from_json(ctx, t.get("coeff", []))
    return Element(ctx, terms)


def tensor_to_json(t):
    terms = [{"left": _mono_to_json(left), "right": _mono_to_json(right),
              "coeff": scalar_to_json(c)} for (left, right), c in t.sorted_terms()]
    return {"context": context_to_json(t.ctx), "terms": terms}


def _map_to_json(f, diag_keys, matrix_key):
    """A generator map: its diag(a, b) under ``diag_keys``, its 2x2 matrix
    under ``matrix_key``, or its raw images."""
    out = {"kind": f.kind, "context": context_to_json(f.ctx)}
    if f.kind == "diag":
        for key, c in zip(diag_keys, f.matrix[::3]):
            out[key] = scalar_to_json(c)
    elif f.kind == "matrix2":
        out[matrix_key] = [scalar_to_json(c) for c in f.matrix]
    else:
        for key in ("g_img", "x_img", "y_img"):
            out[key] = element_to_json(getattr(f, key))
    return out


def star_to_json(st):
    return _map_to_json(st, ("alpha", "beta"), "a")


def star_context(obj):
    """The context a star-structure object declares in its header."""
    try:
        return context_from_json(obj["context"])
    except (KeyError, TypeError) as exc:
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
            return star.make_star_diag(ctx, scalar(obj["alpha"]), scalar(obj["beta"]))
        if kind == "matrix2":
            entries = obj["a"]
            if not isinstance(entries, list) or len(entries) != 4:
                raise KernelError("matrix star needs a list of exactly 4 entries")
            return star.make_star_matrix(ctx, tuple(scalar(c) for c in entries))
        if kind == "raw":
            return star.make_star_raw(ctx, element(obj["g_img"]),
                                      element(obj["x_img"]), element(obj["y_img"]))
    except KeyError as exc:
        raise KernelError(f"{kind} star is missing {exc}") from exc
    raise KernelError(f"unknown star kind {kind!r}")


def _value_to_json(v):
    if isinstance(v, Element):
        return {"type": "element", "value": element_to_json(v)}
    if isinstance(v, coalgebra.TensorElement):
        return {"type": "tensor", "value": tensor_to_json(v)}
    # Else a triple-tensor dict, from the coassociativity check.
    terms = [{"first": _mono_to_json(a), "second": _mono_to_json(b),
              "third": _mono_to_json(c), "coeff": scalar_to_json(coeff)}
             for (a, b, c), coeff in sorted(v.items())]
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
    """The answer "equivalent", carried by its verified witness phi."""
    return {"equivalent": True,
            "witness": _map_to_json(phi, ("lambda1", "lambda2"), "lambda")}


def skew_to_json(vectors):
    return {
        "dimension": len(vectors),
        "basis": [element_to_json(v) for v in vectors],
    }


def scan_to_json(survivors):
    return {"survivors": [star_to_json(st) for st in survivors]}
