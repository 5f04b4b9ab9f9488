"""JSON encode/decode for every kernel value, plus the shipped schemas.

A scalar travels as an array of phi(m) canonical rational strings; every
aggregate carries a context header {"n": ..., "m": ...}.  Decoders
rebuild values through the ordinary constructors so invariants (norm-one
parameters, conj(A)A = I2) are re-enforced on load; malformed input
raises KernelError, which the CLI maps to a usage error.
"""

from __future__ import annotations

from fractions import Fraction

from . import coalgebra, star
from .algebra import Element, Monomial
from .errors import KernelError
from .scalars import MAX_INPUT_DIGITS, make_context


def context_to_json(ctx):
    return {"n": ctx.n, "m": ctx.m}


def context_from_json(obj):
    try:
        return make_context(int(obj["n"]), int(obj["m"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise KernelError(f"bad context header: {exc}") from exc


def scalar_to_json(c):
    return [str(v) for v in c.coords]


def scalar_from_json(ctx, obj):
    try:
        coords = [Fraction(s) for s in obj]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise KernelError(f"bad scalar coordinates: {exc}") from exc
    if any(len(str(c)) > MAX_INPUT_DIGITS for c in coords):
        raise KernelError(f"scalar coordinate longer than {MAX_INPUT_DIGITS} digits")
    return ctx.from_coords(coords)


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
    terms = []
    for (left, right), c in t.sorted_terms():
        terms.append(
            {
                "left": _mono_to_json(left),
                "right": _mono_to_json(right),
                "coeff": scalar_to_json(c),
            }
        )
    return {"context": context_to_json(t.ctx), "terms": terms}


def tensor_from_json(obj, ctx=None):
    term_objs = _term_objects(obj)
    if ctx is None:
        ctx = context_from_json(obj.get("context", {}))
    terms = {}
    for t in term_objs:
        pair = (_mono_from_json(ctx, t.get("left")),
                _mono_from_json(ctx, t.get("right")))
        terms[pair] = scalar_from_json(ctx, t.get("coeff", []))
    return coalgebra.TensorElement(ctx, terms)


def star_to_json(st):
    out = {"kind": st.kind, "context": context_to_json(st.ctx)}
    if st.kind == "diag":
        out["alpha"] = scalar_to_json(st.alpha)
        out["beta"] = scalar_to_json(st.beta)
    elif st.kind == "matrix2":
        out["a"] = [scalar_to_json(c) for c in st.matrix]
    else:
        out["g_img"] = element_to_json(st.g_img)
        out["x_img"] = element_to_json(st.x_img)
        out["y_img"] = element_to_json(st.y_img)
    return out


def star_from_json(obj):
    try:
        kind = obj["kind"]
        ctx = context_from_json(obj["context"])
    except (KeyError, TypeError) as exc:
        raise KernelError(f"bad star structure: {exc}") from exc
    try:
        if kind == "diag":
            return star.make_star_diag(
                ctx,
                scalar_from_json(ctx, obj["alpha"]),
                scalar_from_json(ctx, obj["beta"]),
            )
        if kind == "matrix2":
            entries = obj["a"]
            if not isinstance(entries, list) or len(entries) != 4:
                raise KernelError("matrix star needs a list of exactly 4 entries")
            return star.make_star_matrix(
                ctx, tuple(scalar_from_json(ctx, c) for c in entries)
            )
        if kind == "raw":
            return star.make_star_raw(
                ctx,
                element_from_json(obj["g_img"], ctx),
                element_from_json(obj["x_img"], ctx),
                element_from_json(obj["y_img"], ctx),
            )
    except KeyError as exc:
        raise KernelError(f"{kind} star is missing {exc}") from exc
    raise KernelError(f"unknown star kind {kind!r}")


def _value_to_json(v):
    if isinstance(v, Element):
        return {"type": "element", "value": element_to_json(v)}
    if isinstance(v, coalgebra.TensorElement):
        return {"type": "tensor", "value": tensor_to_json(v)}
    if isinstance(v, dict):
        # Triple-tensor dicts from coassociativity checks.
        terms = []
        for (a, b, c), coeff in sorted(v.items()):
            terms.append(
                {
                    "first": _mono_to_json(a),
                    "second": _mono_to_json(b),
                    "third": _mono_to_json(c),
                    "coeff": scalar_to_json(coeff),
                }
            )
        return {"type": "triple_tensor", "value": {"terms": terms}}
    return {"type": "text", "value": repr(v)}


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
    checks = []
    for c in report.checks:
        entry = {"name": c.name, "pass": c.passed}
        entry["counterexample"] = (
            counterexample_to_json(c.counterexample)
            if c.counterexample is not None
            else None
        )
        checks.append(entry)
    return {"checks": checks}


def automorphism_to_json(phi):
    out = {"kind": phi.kind, "context": context_to_json(phi.ctx)}
    if phi.kind == "diag":
        out["lambda1"] = scalar_to_json(phi.lambda1)
        out["lambda2"] = scalar_to_json(phi.lambda2)
    else:
        out["lambda"] = [scalar_to_json(c) for c in phi.matrix]
    return out


def equivalence_to_json(result):
    return {
        "equivalent": result.equivalent,
        "witness": automorphism_to_json(result.witness)
        if result.witness is not None
        else None,
    }


def skew_to_json(vectors):
    return {
        "dimension": len(vectors),
        "basis": [element_to_json(v) for v in vectors],
    }


def scan_to_json(survivors):
    return {"survivors": [star_to_json(st) for st in survivors]}


def load_schema(name):
    """One of the schemas shipped under radford/schemas."""
    import json
    from importlib import resources

    text = resources.files("radford").joinpath(f"schemas/{name}.json").read_text()
    return json.loads(text)
