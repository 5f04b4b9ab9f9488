"""Answer key: checks each command's exit code and output against the paper.

Expected values never come from the production path of the command being
checked:

* verdicts follow from the paper (Hopf and star axioms hold, antipode
  order 2n, skew-primitive dimensions, group-likes are the g^k, every
  n > 2 diagonal pair is equivalent) or from the generator's own
  construction (the failing check of a ``raw`` candidate, scan survivor
  counts by the classification in Gaussian-rational arithmetic);
* equivalence witnesses are checked against their defining equations
  in ``cyclo``'s arithmetic;
* interactive outputs are compared with the oracle paths the project
  keeps beside the production ones: ``rewrite_word`` for products,
  ``delta`` against ``delta_closed``, and S^(2n) = id for the antipode,
  with S computed by rewriting words.

Outputs are read by the readers below, not by the program's parser.
"""

from __future__ import annotations

import json
from fractions import Fraction

from cyclo import Cyclo, mat_conj, mat_det, mat_mul


class Verdict:
    __slots__ = ("ok", "reason", "decided")

    def __init__(self, ok, reason="", decided=None):
        self.ok = ok
        self.reason = reason
        # None: not an equivalence query; else whether it was decided.
        self.decided = decided


class WrongAnswer(Exception):
    pass


def _require(cond, reason):
    if not cond:
        raise WrongAnswer(reason)


# -- output readers ---------------------------------------------------------------
# Canonical forms: a scalar is {zeta exponent: Fraction} without zeros, an
# element {(r, s, l): scalar}, a tensor {((r, s, l), (r, s, l)): scalar}.

def read_scalar_text(text):
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for piece in text.replace(" - ", " + -").split(" + "):
        neg = piece.startswith("-")
        factors = piece.lstrip("-").split("*")
        k = 0
        if factors[-1].startswith("z"):
            z = factors.pop()
            k = 1 if z == "z" else int(z[2:])
        coeff = Fraction(factors[0]) if factors else Fraction(1)
        out[k] = out.get(k, 0) + (-coeff if neg else coeff)
    return {k: v for k, v in out.items() if v}


def read_scalar_coords(coords):
    return {k: Fraction(v) for k, v in enumerate(coords) if Fraction(v)}


def _split_top(text, sep=" + "):
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def read_mono_text(text):
    exps = {"y": 0, "x": 0, "g": 0}
    if text != "1":
        for factor in text.split("*"):
            name, _, power = factor.partition("^")
            exps[name] = int(power) if power else 1
    return (exps["y"], exps["x"], exps["g"])


def _coeff_and_rest(piece):
    """'(scalar)*rest' -> (scalar, rest); otherwise coefficient 1."""
    if piece.startswith("("):
        depth = 0
        for i, ch in enumerate(piece):
            depth += (ch == "(") - (ch == ")")
            if depth == 0:
                break
        inner = piece[1:i]
        if " ⊗ " not in inner:
            return read_scalar_text(inner), piece[i + 2:]
    return {0: Fraction(1)}, piece


def _put(out, key, coeff):
    _require(key not in out, f"term {key} printed twice")
    out[key] = coeff


def read_element_text(text):
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for piece in _split_top(text):
        coeff, rest = _coeff_and_rest(piece)
        _put(out, read_mono_text(rest or "1"), coeff)
    return out


def read_tensor_text(text):
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for piece in _split_top(text):
        coeff, rest = _coeff_and_rest(piece)
        left, right = rest[1:-1].split(" ⊗ ")
        _put(out, (read_mono_text(left), read_mono_text(right)), coeff)
    return out


def _mono_json(t):
    return (t["r"], t["s"], t["l"])


def read_element_json(obj):
    out = {}
    for t in obj["terms"]:
        _put(out, _mono_json(t), read_scalar_coords(t["coeff"]))
    return out


def read_tensor_json(obj):
    out = {}
    for t in obj["terms"]:
        _put(out, (_mono_json(t["left"]), _mono_json(t["right"])),
             read_scalar_coords(t["coeff"]))
    return out


def read_report(stdout, as_json):
    """[(check name, passed)] from a verification report."""
    if as_json:
        return [(c["name"], c["pass"]) for c in json.loads(stdout)["checks"]]
    out = []
    for line in stdout.splitlines():
        mark, name = line.split()[:2]
        _require(mark in ("PASS", "FAIL"), f"unreadable report line {line!r}")
        out.append((name, mark == "PASS"))
    return out


# -- oracle for interactive commands ------------------------------------------

class Oracle:
    """Expected interactive outputs via the program's independent oracles."""

    def __init__(self):
        from radford import algebra, coalgebra, scalars
        self.algebra, self.coalgebra, self.scalars = algebra, coalgebra, scalars
        self._antipode = {}

    def ctx(self, n, m):
        return self.scalars.make_context(n, m)

    def scalar(self, ctx, q, k):
        return ctx.from_fraction(Fraction(q)) * ctx.zeta(k)

    def word(self, ctx, letters, q, k):
        fw = self.algebra.FreeWord(letters, self.scalar(ctx, q, k))
        return self.algebra.rewrite_word(ctx, fw)

    def normalize(self, ctx, terms):
        acc = self.algebra.Element.zero(ctx)
        for q, k, letters in terms:
            acc = acc + self.word(ctx, letters, q, k)
        return acc

    def antipode(self, ctx, e):
        """S by rewriting: S(y^r x^s g^l) = (-1)^(r+s) S(g)^l S(x)^s S(y)^r."""
        n = ctx.n
        acc = self.algebra.Element.zero(ctx)
        for mono, c in e.terms.items():
            key = (ctx.n, ctx.m, mono)
            image = self._antipode.get(key)
            if image is None:
                gs = "g" * (n - 1)
                letters = gs * mono.l + ("x" + gs) * mono.s + ("y" + gs) * mono.r
                image = self.word(ctx, letters, (-1) ** (mono.r + mono.s), 0)
                self._antipode[key] = image
            acc = acc + image.scale(c)
        return acc

    def element(self, ctx, canon):
        terms = {}
        for (r, s, l), coeff in canon.items():
            coords = [coeff.get(k, 0) for k in range(ctx.degree)]
            _require(len(coeff) == 0 or max(coeff) < ctx.degree,
                     "coefficient outside the power basis")
            terms[self.algebra.Monomial(r, s, l)] = ctx.from_coords(coords)
        return self.algebra.Element(ctx, terms)


def canon_scalar(c):
    return read_scalar_coords(c.coords)


def canon_element(e):
    return {tuple(m): canon_scalar(c) for m, c in e.terms.items()}


def canon_tensor(t):
    return {(tuple(a), tuple(b)): canon_scalar(c) for (a, b), c in t.terms.items()}


def _terms(spec):
    return [(Fraction(q), k, letters) for q, k, letters in spec]


def _check_interactive(oracle, exp, stdout, as_json):
    kind = exp["kind"]
    ctx = oracle.ctx(exp["n"], exp["m"])
    terms = _terms(exp["expr"])
    e = oracle.normalize(ctx, terms)
    if kind == "counit":
        acc = ctx.zero
        for q, k, letters in terms:
            if set(letters) <= {"g"}:
                acc = acc + oracle.scalar(ctx, q, k)
        got = (read_scalar_coords(json.loads(stdout)["coords"]) if as_json
               else read_scalar_text(stdout))
        _require(got == canon_scalar(acc), "counit differs from the sum over g-words")
        return
    if kind in ("delta", "delta-closed"):
        if kind == "delta":
            want = oracle.coalgebra.TensorElement.zero(ctx)
            for mono, c in e.terms.items():
                want = want + oracle.coalgebra.delta_closed(ctx, mono).scale(c)
        else:
            want = oracle.coalgebra.delta(e)
        got = read_tensor_json(json.loads(stdout)) if as_json else read_tensor_text(stdout)
        _require(got == canon_tensor(want), f"{kind} differs from the other coproduct path")
        return
    got = read_element_json(json.loads(stdout)) if as_json else read_element_text(stdout)
    if kind == "antipode":
        out = oracle.element(ctx, got)
        for _ in range(2 * ctx.n - 1):
            out = oracle.antipode(ctx, out)
        _require(canon_element(out) == canon_element(e), "S^(2n-1)(S(h)) != h")
        return
    if kind == "normalize":
        want = e
    elif kind == "mul":
        want = oracle.algebra.Element.zero(ctx)
        for q1, k1, l1 in terms:
            for q2, k2, l2 in _terms(exp["rhs"]):
                want = want + oracle.word(ctx, l1 + l2, q1 * q2, k1 + k2)
    elif kind == "star-apply":
        a, b = exp["star"]
        want = oracle.algebra.Element.zero(ctx)
        for q, k, letters in terms:
            # (c w1..wk)* = conj(c) wk*..w1*, x* = zeta^a x, y* = zeta^b y.
            k_star = -k + a * letters.count("x") + b * letters.count("y")
            want = want + oracle.word(ctx, letters[::-1], q, k_star)
    else:
        raise WrongAnswer(f"no answer key for {kind!r}")
    _require(got == canon_element(want), f"{kind} differs from rewrite_word")


# -- verdict checks --------------------------------------------------------------

def _embed_param(spec, field, m):
    if "zeta" in spec:
        return Cyclo(m).embed(Cyclo(m).zeta(spec["zeta"]), field)
    re_, im = spec["gauss"]
    return field.gauss(Fraction(re_), Fraction(im))


def _coords(field, coords):
    _require(len(coords) == field.degree, "witness coordinates of the wrong length")
    return tuple(Fraction(c) for c in coords)


def _check_equiv(exp, rc, payload):
    verdict = payload["equivalent"]
    if verdict == "unknown-within-bound":
        _require(rc == 1, f"exit {rc} for unknown-within-bound")
        return
    _require(verdict is True, f"verdict {verdict!r}; every such pair is equivalent")
    _require(rc == 0, f"exit {rc} for equivalent")
    wit = payload["witness"]
    _require(wit is not None, "equivalent without a witness")
    field = Cyclo(int(wit["context"]["m"]))
    if exp["kind"] == "equiv_diag":
        _require(field.m % exp["m"] == 0, "witness field does not contain the input's")
        # phi = diag(l1, l2) carries diag(alpha, beta) to the trivial structure
        # iff alpha*l1 = conj(l1) and beta*l2 = conj(l2), with l1, l2 nonzero.
        for param, lam in (("alpha", "lambda1"), ("beta", "lambda2")):
            lv = _coords(field, wit[lam])
            _require(any(lv), f"{lam} is zero")
            pv = _embed_param(exp[param], field, exp["m"])
            _require(field.mul(pv, lv) == field.conj(lv), f"{param}*{lam} != conj({lam})")
        return
    # n = 2: A L = conj(L) B with L invertible.
    a, b = (tuple(field.gauss(Fraction(re_), Fraction(im)) for re_, im in mat)
            for mat in (exp["a"], exp["b"]))
    lam = tuple(_coords(field, c) for c in wit["lambda"])
    _require(any(mat_det(lam, field)), "witness matrix is singular")
    _require(mat_mul(a, lam, field) == mat_mul(mat_conj(lam, field), b, field),
             "A L != conj(L) B")


def _number(stdout, as_json, key, prefix=None):
    if as_json:
        return json.loads(stdout)[key]
    line = stdout.splitlines()[0].strip()
    if prefix:
        _require(line.startswith(prefix + " "), f"expected '{prefix} <k>', got {line!r}")
        line = line[len(prefix) + 1:]
    return int(line)


def check(op, rc, stdout, oracle):
    """Verdict for one operation from its exit code and standard output."""
    exp = op.expect
    as_json = "--json" in op.argv
    kind = exp["kind"]
    try:
        if kind == "report":
            checks = read_report(stdout, as_json)
            _require(checks, "empty report")
            if exp.get("pass"):
                _require(rc == 0, f"exit {rc}, want 0")
                failed = [name for name, ok in checks if not ok]
                _require(not failed, f"checks failed: {failed}")
            else:
                _require(rc == 1, f"exit {rc}, want 1")
                _require((exp["fail"], False) in checks, f"{exp['fail']} did not fail")
        elif kind in ("equiv_diag", "equiv_n2"):
            payload = json.loads(stdout)
            decided = payload["equivalent"] in (True, False)
            try:
                _require(rc in (0, 1), f"exit {rc}")
                _check_equiv(exp, rc, payload)
            except WrongAnswer as exc:
                return Verdict(False, str(exc), decided)
            return Verdict(True, decided=decided)
        elif kind == "grouplike":
            want = exp["value"]
            _require(rc == (0 if want else 1), f"exit {rc}")
            if as_json:
                got = json.loads(stdout)["grouplike"]
            else:
                _require(stdout.strip() in ("true", "false"), f"unreadable {stdout!r}")
                got = stdout.strip() == "true"
            _require(got is want, f"grouplike {got}, want {want}")
        else:
            _require(rc == 0, f"exit {rc}, want 0")
            if kind == "order":
                _require(_number(stdout, as_json, "order") == exp["value"],
                         f"antipode order, want {exp['value']}")
            elif kind == "scan":
                got = (len(json.loads(stdout)["survivors"]) if as_json
                       else _number(stdout, False, None, "survivors"))
                _require(got == exp["survivors"],
                         f"{got} survivors, want {exp['survivors']}")
            elif kind == "skew":
                got = _number(stdout, as_json, "dimension", "dimension")
                _require(got == exp["dimension"],
                         f"dimension {got}, want {exp['dimension']}")
            else:
                _check_interactive(oracle, exp, stdout, as_json)
    except WrongAnswer as exc:
        return Verdict(False, str(exc))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return Verdict(False, f"unreadable output: {type(exc).__name__}: {exc}",
                       False if kind.startswith("equiv") else None)
    return Verdict(True)
