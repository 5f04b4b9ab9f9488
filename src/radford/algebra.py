"""The algebra underlying H_n: canonical monomials and sparse elements.

H_n is generated by g, x, y subject to

    g^n = 1,  x^n = y^n = 0,  xg = w*gx,  gy = w*yg,  xy = w*yx,

with w a root of unity of order n.  Monomials are written in the
canonical order y^r x^s g^l with 0 <= r, s, l < n, so the algebra has
dimension n^3.  Products are computed two independent ways:

* a closed formula on monomials (the production path), and
* a letter-by-letter rewriting engine on free words (the oracle),

kept side by side so any slip in the twist exponents is caught by
comparing them; the test suite does so exhaustively for small n.

Moving g right past y^b costs w^b per g, past x^b costs w^-b per g, and
moving x right past y^b costs w^b per x, which gives the single twist
exponent  e = l1*r2 + s1*r2 - l1*s2  for a full monomial product.
"""

from __future__ import annotations

import operator
from itertools import chain
from math import gcd
from typing import NamedTuple

from .errors import ContextMismatchError, KernelError
from .scalars import _meter, _power


class Monomial(NamedTuple):
    """Basis word y^r x^s g^l; tuple order (r, s, l) is the sort order."""

    r: int
    s: int
    l: int

    def __str__(self):
        return f"y^{self.r}*x^{self.s}*g^{self.l}"


# g, x, y as basis monomials.
GENERATOR_MONOMIALS = (Monomial(0, 0, 1), Monomial(0, 1, 0), Monomial(1, 0, 0))


def relation_pairs(ctx):
    """The six basis pairs whose products encode the defining relations.

    (g, x), (g, y), (x, y) multiply to w^-1 xg, w yg, w yx, and
    (g^(n-1), g), (x^(n-1), x), (y^(n-1), y) to 1, 0, 0.  A map defined as
    the (anti-)multiplicative extension of generator images along
    canonical words is an (anti-)homomorphism exactly when it respects
    these six products: that is the universal property of an algebra
    given by generators and relations.
    """
    g, x, y = GENERATOR_MONOMIALS
    k = ctx.n - 1
    return ((g, x), (g, y), (x, y),
            (Monomial(0, 0, k), g), (Monomial(0, k, 0), x), (Monomial(k, 0, 0), y))


class Counterexample(NamedTuple):
    """Where a check failed: the basis monomial or pair, and both sides."""

    location: tuple
    lhs: object
    rhs: object


def _first_counterexample(kind, points, check):
    """The first point where ``check`` fails, located as (kind, point).

    ``check(point)`` returns None where the law holds and its two
    differing sides (lhs, rhs) where it does not.
    """
    for p in points:
        sides = check(p)
        if sides is not None:
            return Counterexample((kind, p), *sides)
    return None


def _unequal(lhs, rhs):
    """None when the sides agree, else the pair: the usual ``check`` body."""
    return None if lhs == rhs else (lhs, rhs)


def _nilpotent(ctx, t, mul):
    """True when t^n = 0 under ``mul`` follows from the q-binomial theorem;
    False when it does not follow, whether or not t^n = 0.

    t is zero, one term, or two terms a, b with ba = q ab, q of order n
    (or ab = ba = 0); then t^n = a^n + b^n (Kassel, GTM 155, Ch. IV.2).
    Each power is decided on its basis key with coefficient 1, as c^n != 0.
    """
    units = [type(t)(ctx, {k: ctx.one}) for k in t.terms]
    if len(units) > 2 or any(_power(u, ctx.n, mul, None).terms for u in units):
        return False
    if len(units) < 2:
        return True
    ab, ba = mul(*units), mul(*units[::-1])
    if ab.terms.keys() != ba.terms.keys() or len(ab.terms) > 1:
        return False
    logs = [ctx.zeta_log(c) for c in (*ab.terms.values(), *ba.terms.values())]
    if not logs:  # ab = ba = 0
        return True
    return None not in logs and ctx.m // gcd(logs[1] - logs[0], ctx.m) == ctx.n


def _relation_counterexample(ctx, f, mul, anti=False):
    """First relation pair (a, b) with f(ab) != mul(f(a), f(b)), or
    != mul(f(b), f(a)) when ``anti`` is set, or None: whether f, extended
    along canonical words, respects products or reverses them.

    (x^(n-1), x) and (y^(n-1), y) multiply to 0, and f(b^(n-1)) = f(b)^(n-1),
    so there the law reads f(b)^n = 0; ``_nilpotent`` settles it without
    forming f(b^(n-1)) when it can, and the product decides otherwise."""

    def check(pair):
        ea, eb = (Element.monomial(ctx, *mono) for mono in pair)
        ab, fb = ea * eb, f(eb)
        if ab.is_zero and _nilpotent(ctx, fb, mul):
            return None
        fa = f(ea)
        return _unequal(f(ab), mul(fb, fa) if anti else mul(fa, fb))

    return _first_counterexample("pair", relation_pairs(ctx), check)


def _on_generators(check):
    """First failure of ``check`` among g, x, y."""
    return _first_counterexample("monomial", GENERATOR_MONOMIALS, check)


def _map_law(ctx, lhs, rhs):
    """Check of lhs(b) = rhs(b) on a basis monomial b: two maps agree."""

    def check(mono):
        eb = Element.monomial(ctx, *mono)
        return _unequal(lhs(eb), rhs(eb))

    return check


def _mono_mul_parts(n, a, b):
    """(omega exponent mod n, product monomial), or None when it vanishes."""
    r = a[0] + b[0]
    if r >= n:
        return None
    s = a[1] + b[1]
    if s >= n:
        return None
    e = (a[2] * b[0] + a[1] * b[0] - a[2] * b[1]) % n
    return e, Monomial(r, s, (a[2] + b[2]) % n)


class SparseTerms:
    """Immutable sparse map from basis keys to nonzero scalars.

    The shared part of ``Element``, ``coalgebra.TensorElement`` and the
    triple tensors of ``coalgebra.triple_delta_sides``.  ``collect`` is
    the one sum: every addition of coefficients of equal keys goes through
    it.  ``_product`` is the one term-by-term product, given the rule that
    multiplies two keys.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def collect(cls, ctx, items):
        """The sum of (key, coefficient) items: equal keys add, zeros drop."""
        items = list(items)
        _meter.charge(3 * len(items))
        out = {}
        for k, c in items:
            acc = out.get(k)
            out[k] = c if acc is None else acc + c
        return cls(ctx, out)

    @classmethod
    def sum_of(cls, ctx, parts):
        """The sum of ``parts``, values of this class, by ``collect``."""
        return cls.collect(ctx, chain.from_iterable(p.terms.items() for p in parts))

    def sorted_terms(self):
        return sorted(self.terms.items())

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _check(self, other):
        if self.ctx is not other.ctx:
            raise ContextMismatchError(
                f"{type(self).__name__}s from different contexts")

    def __add__(self, other):
        self._check(other)
        return self.collect(self.ctx, chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return type(self)(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return self.zero(self.ctx)
        return type(self)(self.ctx, {k: c * v for k, v in self.terms.items()})

    def _product(self, other, key_product):
        """The term-by-term product; ``key_product(n, k1, k2)`` gives each
        pair of keys its (omega exponent mod n, key), or None when it
        vanishes."""
        self._check(other)
        ctx = self.ctx
        n = ctx.n
        # Every pair is examined, vanishing or not (scalars.MAX_WORK).
        _meter.charge(60 + 20 * len(self.terms) * len(other.terms))
        items = []
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                parts = key_product(n, k1, k2)
                if parts is not None:
                    e, key = parts
                    c = c1 * c2
                    items.append((key, c * ctx.omega(e) if e else c))
        return self.collect(ctx, items)


class Element(SparseTerms):
    """Sparse linear combination of basis monomials; zero coefficients pruned.

    Values are immutable: no operation mutates an Element (``e ** 1`` may
    return ``e`` itself), and the term map must never be mutated after
    construction.
    """

    __slots__ = ()

    # Bound here, not inherited: perfbench/tracing.py wraps each class's own.
    __add__, __neg__, __sub__, scale = (
        SparseTerms.__add__, SparseTerms.__neg__, SparseTerms.__sub__, SparseTerms.scale)

    @classmethod
    def monomial(cls, ctx, r, s, l, coeff=None):
        n = ctx.n
        if not (0 <= r < n and 0 <= s < n and 0 <= l < n):
            raise KernelError(f"monomial exponents ({r},{s},{l}) out of [0,{n})")
        if coeff is None:
            coeff = ctx.one
        return cls(ctx, {Monomial(r, s, l): coeff})

    @classmethod
    def one(cls, ctx):
        return cls.monomial(ctx, 0, 0, 0)

    @classmethod
    def from_scalar(cls, ctx, c):
        return cls(ctx, {Monomial(0, 0, 0): c})

    def __repr__(self):
        from .parser import format_element

        return f"<{format_element(self)}>"

    def __mul__(self, other):
        return self._product(other, _mono_mul_parts)

    def __pow__(self, k):
        if k < 0:
            raise KernelError("negative powers of algebra elements")
        return _power(self, k, operator.mul, Element.one(self.ctx))

    def coefficient(self, r, s, l):
        return self.terms.get(Monomial(r, s, l), self.ctx.zero)

    def embed(self, big_ctx):
        """Same element with coefficients in an extended-conductor context."""
        if big_ctx is self.ctx:
            return self
        return Element(
            big_ctx, {m: c.embed(big_ctx) for m, c in self.terms.items()}
        )


class FreeWord:
    """Word over the alphabet {G, X, Y} with an optional scalar coefficient."""

    __slots__ = ("letters", "coefficient")

    def __init__(self, letters, coefficient=None):
        bad = set(letters.upper()) - set("GXY")
        if bad:
            raise KernelError(f"letters outside alphabet GXY: {sorted(bad)}")
        self.letters = letters
        self.coefficient = coefficient


# Weighted inversion swaps for sorting into Y < X < G order:
# GY -> w*YG, GX -> w^-1*XG, XY -> w*YX.
_SWAP_EXP = {("G", "Y"): 1, ("G", "X"): -1, ("X", "Y"): 1}
_RANK = {"Y": 0, "X": 1, "G": 2}


def rewrite_word(ctx, word):
    """Normalize a free word to its canonical Element via term rewriting.

    Independent of the closed-form product: only the defining relations
    drive it.  Each swap removes one inversion relative to Y < X < G, so
    the pass terminates; power relations g^n = 1, x^n = y^n = 0 apply at
    the end.
    """
    if isinstance(word, str):
        word = FreeWord(word)
    letters = list(word.letters.upper())
    exp = 0
    # Insertion sort, accumulating the omega exponent per weighted swap.
    for i in range(1, len(letters)):
        j = i
        while j > 0 and _RANK[letters[j - 1]] > _RANK[letters[j]]:
            exp += _SWAP_EXP[(letters[j - 1], letters[j])]
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            j -= 1
    n = ctx.n
    r = letters.count("Y")
    s = letters.count("X")
    l = letters.count("G")
    coeff = word.coefficient if word.coefficient is not None else ctx.one
    if r >= n or s >= n:
        return Element.zero(ctx)
    coeff = coeff * ctx.omega(exp)
    return Element.monomial(ctx, r, s, l % n, coeff)
