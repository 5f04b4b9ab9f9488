"""Coalgebra structure of H_n: coproduct, counit, antipode, tensor square.

On generators

    D(g) = g (x) g,   D(x) = x (x) g + 1 (x) x,   D(y) = y (x) g + 1 (x) y,
    e(g) = 1, e(x) = e(y) = 0,
    S(g) = g^(n-1),  S(x) = -x g^(n-1),  S(y) = -y g^(n-1).

The coproduct of a monomial is computed multiplicatively as
D(y)^r D(x)^s D(g)^l; that is the ground truth.  The closed double-sum
form (``delta_closed``) reproduces it with Gaussian binomial
coefficients; which base each binomial takes was settled by experiment
(see below), not by trusting any single printed formula.

Resolved q-base convention
--------------------------
With the q-Pascal recurrence  C(k,j)_q = C(k-1,j-1)_q + q^j C(k-1,j)_q,
fitting the multiplicatively computed D(y^r) and D(x^s) for n in
{3, 4, 5} forces

    y-leg base q_y = w        (from (y (x) g)(1 (x) y) = w (1 (x) y)(y (x) g)),
    x-leg base q_x = w^(-1)   (from (x (x) g)(1 (x) x) = w^(-1) (1 (x) x)(x (x) g)),

so D(y^r x^s g^l) has coefficient  w^(-(r-i)j) C(r,i)_w C(s,j)_{w^-1}  on
y^(r-i) x^(s-j) g^l (x) y^i x^j g^(l+s-j+r-i).  The regression test
``test_qbase_convention_resolved_by_experiment`` re-runs the fit.
"""

from __future__ import annotations

from .algebra import (
    GENERATOR_MONOMIALS,
    Element,
    Monomial,
    _first_counterexample,
    _mono_mul_parts,
    _unequal,
    relation_pairs,
)
from .errors import ContextMismatchError, KernelError


class TensorElement:
    """Sparse element of H (x) H over pairs of basis monomials."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = {p: c for p, c in terms.items() if c}

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def basis_term(cls, ctx, left, right, coeff=None):
        if coeff is None:
            coeff = ctx.one
        return cls(ctx, {(left, right): coeff})

    @property
    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        from .parser import format_tensor

        return f"<{format_tensor(self)}>"

    def _check(self, other):
        if self.ctx is not other.ctx and (
            self.ctx.n != other.ctx.n or self.ctx.m != other.ctx.m
        ):
            raise ContextMismatchError("tensor elements from different contexts")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for p, c in other.terms.items():
            acc = out.get(p)
            out[p] = c if acc is None else acc + c
        return TensorElement(self.ctx, out)

    def __neg__(self):
        return TensorElement(self.ctx, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return TensorElement.zero(self.ctx)
        return TensorElement(self.ctx, {p: c * v for p, v in self.terms.items()})

    def __mul__(self, other):
        return tensor_mul(self, other)


def tensor_mul(t1, t2):
    """Componentwise product (a (x) b)(c (x) d) = ac (x) bd, no braiding."""
    t1._check(t2)
    ctx = t1.ctx
    n = ctx.n
    out = {}
    for (a, b), c1 in t1.terms.items():
        for (c, d), c2 in t2.terms.items():
            left = _mono_mul_parts(n, a, c)
            if left is None:
                continue
            right = _mono_mul_parts(n, b, d)
            if right is None:
                continue
            e1, ml = left
            e2, mr = right
            coeff = c1 * c2
            e = (e1 + e2) % n
            if e:
                coeff = coeff * ctx.omega_pow(e)
            key = (ml, mr)
            acc = out.get(key)
            out[key] = coeff if acc is None else acc + coeff
    return TensorElement(ctx, out)


def tensor_of(e1, e2):
    """The tensor product element e1 (x) e2."""
    e1._check(e2)
    out = {}
    for m1, c1 in e1.terms.items():
        for m2, c2 in e2.terms.items():
            out[(m1, m2)] = c1 * c2
    return TensorElement(e1.ctx, out)


def tensor_flip(t):
    """Swap the two legs."""
    return TensorElement(t.ctx, {(b, a): c for (a, b), c in t.terms.items()})


def tensor_map(t, f_left, f_right):
    """Apply Element maps legwise; coefficients ride through the left map.

    Feeding each term's coefficient to f_left means a conjugate-linear
    pair of maps conjugates every coefficient exactly once, which is the
    convention needed for checks like D(h^*) = (* (x) *) D(h).
    """
    ctx = t.ctx
    acc = TensorElement.zero(ctx)
    for (a, b), c in t.terms.items():
        le = f_left(Element(ctx, {a: c}))
        re = f_right(Element(ctx, {b: ctx.one}))
        acc = acc + tensor_of(le, re)
    return acc


def qbinom(k, j, q):
    """Gaussian binomial C(k, j)_q from the q-Pascal recurrence.

    C(k,0) = C(k,k) = 1 and C(k,j) = C(k-1,j-1) + q^j * C(k-1,j).
    """
    if j < 0 or j > k:
        raise KernelError(f"q-binomial index j={j} outside [0, {k}]")
    ctx = q.ctx
    one = ctx.one
    row = [one]
    for i in range(1, k + 1):
        new = [one]
        for t in range(1, i):
            new.append(row[t - 1] + (q ** t) * row[t])
        new.append(one)
        row = new
    return row[j]


_GEN_DELTAS = {}


def _generator_deltas(ctx):
    key = (ctx.n, ctx.m)
    hit = _GEN_DELTAS.get(key)
    if hit is None:
        one = Monomial(0, 0, 0)
        g = Monomial(0, 0, 1)
        x = Monomial(0, 1, 0)
        y = Monomial(1, 0, 0)
        dg = TensorElement(ctx, {(g, g): ctx.one})
        dx = TensorElement(ctx, {(x, g): ctx.one, (one, x): ctx.one})
        dy = TensorElement(ctx, {(y, g): ctx.one, (one, y): ctx.one})
        hit = (dg, dx, dy)
        _GEN_DELTAS[key] = hit
    return hit


_DELTA_CACHE = {}


def _delta_mono(ctx, mono):
    key = (ctx.n, ctx.m, mono)
    hit = _DELTA_CACHE.get(key)
    if hit is not None:
        return hit
    dg, dx, dy = _generator_deltas(ctx)
    acc = TensorElement(ctx, {(Monomial(0, 0, 0), Monomial(0, 0, 0)): ctx.one})
    for _ in range(mono.r):
        acc = tensor_mul(acc, dy)
    for _ in range(mono.s):
        acc = tensor_mul(acc, dx)
    for _ in range(mono.l):
        acc = tensor_mul(acc, dg)
    _DELTA_CACHE[key] = acc
    return acc


def delta(e):
    """Coproduct by multiplicative extension of the generator table."""
    acc = TensorElement.zero(e.ctx)
    for mono, c in e.terms.items():
        acc = acc + _delta_mono(e.ctx, mono).scale(c)
    return acc


def delta_closed(ctx, mono):
    """Closed-form coproduct of one basis monomial (resolved q-bases).

    Must agree term for term with :func:`delta`; the suite checks every
    basis monomial for n up to 6.
    """
    n = ctx.n
    omega = ctx.omega_pow(1)
    omega_inv = ctx.omega_pow(n - 1)
    r, s, l = mono
    out = {}
    for i in range(r + 1):
        ci = qbinom(r, i, omega)
        for j in range(s + 1):
            coeff = ci * qbinom(s, j, omega_inv)
            e = (-(r - i) * j) % n
            if e:
                coeff = coeff * ctx.omega_pow(e)
            if not coeff:
                continue
            left = Monomial(r - i, s - j, l)
            right = Monomial(i, j, (l + s - j + r - i) % n)
            acc = out.get((left, right))
            out[(left, right)] = coeff if acc is None else acc + coeff
    return TensorElement(ctx, out)


def counit(e):
    """e(y^r x^s g^l) = 1 if r = s = 0 else 0, extended linearly."""
    acc = e.ctx.zero
    for mono, c in e.terms.items():
        if mono.r == 0 and mono.s == 0:
            acc = acc + c
    return acc


_ANTIPODE_CACHE = {}


def _antipode_mono(ctx, mono):
    key = (ctx.n, ctx.m, mono)
    hit = _ANTIPODE_CACHE.get(key)
    if hit is not None:
        return hit
    n = ctx.n
    sg = Element.monomial(ctx, 0, 0, (n - 1) % n)
    sx = Element.monomial(ctx, 0, 1, n - 1, -ctx.one)
    sy = Element.monomial(ctx, 1, 0, n - 1, -ctx.one)
    # Antimultiplicative: S(y^r x^s g^l) = S(g)^l S(x)^s S(y)^r.
    acc = (sg ** mono.l) * (sx ** mono.s) * (sy ** mono.r)
    _ANTIPODE_CACHE[key] = acc
    return acc


def antipode(e):
    """The antipode S, extended linearly from the generator images."""
    acc = Element.zero(e.ctx)
    for mono, c in e.terms.items():
        acc = acc + _antipode_mono(e.ctx, mono).scale(c)
    return acc


def _antipode_reverses(ctx, pair):
    """Check S(ab) = S(b)S(a) on one basis pair (a, b)."""
    ea, eb = (Element.monomial(ctx, *mono) for mono in pair)
    return _unequal(antipode(ea * eb), antipode(eb) * antipode(ea))


def antipode_order(ctx):
    """Least k >= 1 with S^k the identity on H_n.

    S is antimultiplicative (checked here on the relation pairs), so for
    even k S^k is an algebra map and is the identity once it fixes g, x
    and y.  For odd k it is an anti-homomorphism: fixing g and x it would
    send xg to gx = w^-1 xg, so also requiring xg fixed excludes odd k.
    """
    if _first_counterexample("pair", relation_pairs(ctx),
                             lambda p: _antipode_reverses(ctx, p)) is not None:
        raise KernelError("the antipode is not antimultiplicative")
    points = GENERATOR_MONOMIALS + (Monomial(0, 1, 1),)
    units = {b: Element(ctx, {b: ctx.one}) for b in points}
    current = {b: antipode(e) for b, e in units.items()}
    limit = 8 * ctx.n
    for k in range(1, limit + 1):
        if _first_counterexample("monomial", points,
                                 lambda b: _unequal(current[b], units[b])) is None:
            return k
        current = {b: antipode(e) for b, e in current.items()}
    raise KernelError(f"antipode order exceeds {limit}")


def triple_delta_sides(e, delta_fn=None):
    """The two triple coproducts ((D (x) id)D, (id (x) D)D) of an element.

    Returned as dicts over monomial triples, for coassociativity checks.
    An alternative coproduct can be injected for negative fixtures.
    """
    if delta_fn is None:
        delta_fn = delta
    ctx = e.ctx
    lhs = {}
    rhs = {}
    for (a, b), c in delta_fn(e).terms.items():
        for (u, v), c2 in delta_fn(Element(ctx, {a: ctx.one})).terms.items():
            key = (u, v, b)
            coeff = c * c2
            acc = lhs.get(key)
            lhs[key] = coeff if acc is None else acc + coeff
        for (u, v), c2 in delta_fn(Element(ctx, {b: ctx.one})).terms.items():
            key = (a, u, v)
            coeff = c * c2
            acc = rhs.get(key)
            rhs[key] = coeff if acc is None else acc + coeff
    return (
        {k: v for k, v in lhs.items() if v},
        {k: v for k, v in rhs.items() if v},
    )
