"""Coalgebra structure of H_n: coproduct, counit, antipode, tensor square.

On generators

    D(g) = g (x) g,   D(x) = x (x) g + 1 (x) x,   D(y) = y (x) g + 1 (x) y,
    e(g) = 1, e(x) = e(y) = 0,
    S(g) = g^(n-1),  S(x) = -x g^(n-1),  S(y) = -y g^(n-1).

Each structure map is computed by one closed formula on the basis
monomials y^r x^s g^l and extended linearly:

    D(y^r x^s g^l) = sum over i <= r, j <= s of
                     w^(-(r-i)j) C(r,i)_w C(s,j)_{w^-1}
                     y^(r-i) x^(s-j) g^l (x) y^i x^j g^(l+r-i+s-j),
    e(y^r x^s g^l) = 1 if r = s = 0 else 0,
    S(y^r x^s g^l) = (-1)^(r+s) w^(s(s-1)/2 - r(r-1)/2 + l(s-r))
                     y^r x^s g^(-(l+r+s)),

with C(k,j)_q the Gaussian binomial from the q-Pascal recurrence
C(k,j)_q = C(k-1,j-1)_q + q^j C(k-1,j)_q.  The top row needs no
recurrence: q = w^(+-1) is a primitive n-th root of unity, so
(1 - q^(n-i))/(1 - q^i) = (1 - q^-i)/(1 - q^i) = -q^-i and

    C(n-1,t)_q = prod over i <= t of (1 - q^(n-i))/(1 - q^i)
               = (-1)^t q^(-t(t+1)/2)

(Kassel, GTM 155, Ch. IV.2), so D(y^(n-1) x^(n-1)) builds no O(n^2)
q-Pascal triangle.  The relation certificates form neither row: the same
theorem gives D(x)^n = D(y)^n = 0 (``algebra._nilpotent``).

Each formula is the (anti)multiplicative extension of the generator
table along the canonical word: D(y)^r D(x)^s D(g)^l, e(y)^r e(x)^s
e(g)^l and S(g)^l S(x)^s S(y)^r.  The verifiers in ``star`` rely on
exactly that.  The multiplicative forms are kept as test oracles
(``tests/oracles.py``), and the suite compares them with these formulas
term for term on every basis monomial for n = 2..8.

Why the q-bases are w and w^-1
------------------------------
In H (x) H put a = 1 (x) y and b = y (x) g.  Then ba = w ab, so by the
q-binomial theorem for q-commuting pairs (Kassel, *Quantum Groups*,
GTM 155, Ch. IV.2)

    D(y)^r = (a + b)^r = sum_i C(r,i)_w  y^(r-i) (x) y^i g^(r-i).

For x, (x (x) g)(1 (x) x) = w^-1 (1 (x) x)(x (x) g), so the x-leg takes
base w^-1.  Multiplying D(y^r) D(x^s) D(g^l) moves g^(r-i) of the right
leg past x^j, which costs w^(-(r-i)j).  The regression test
``test_qbase_convention_resolved_by_experiment`` fits both bases against
the multiplicative oracle; at n >= 3 the two candidates differ.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .algebra import (
    GENERATOR_MONOMIALS,
    Element,
    Monomial,
    SparseTerms,
    _mono_mul_parts,
    _relation_counterexample,
)
from .errors import KernelError


class TensorElement(SparseTerms):
    """Sparse element of H (x) H over pairs of basis monomials."""

    __slots__ = ()

    # Bound here, not inherited: perfbench/tracing.py wraps each class's own.
    __add__, __neg__, __sub__, scale = (
        SparseTerms.__add__, SparseTerms.__neg__, SparseTerms.__sub__, SparseTerms.scale)

    def __repr__(self):
        from .parser import format_tensor

        return f"<{format_tensor(self)}>"

    def __mul__(self, other):
        return tensor_mul(self, other)


def _legwise_parts(n, p, q):
    """``_mono_mul_parts`` on each leg of two key pairs: (the summed omega
    exponent mod n, the pair of products), or None when a leg vanishes."""
    left = _mono_mul_parts(n, p[0], q[0])
    right = None if left is None else _mono_mul_parts(n, p[1], q[1])
    if right is None:
        return None
    return (left[0] + right[0]) % n, (left[1], right[1])


def tensor_mul(t1, t2):
    """Componentwise product (a (x) b)(c (x) d) = ac (x) bd, no braiding."""
    return t1._product(t2, _legwise_parts)


def tensor_of(e1, e2):
    """The tensor product element e1 (x) e2."""
    e1._check(e2)
    out = {}
    for m1, c1 in e1.terms.items():
        for m2, c2 in e2.terms.items():
            out[(m1, m2)] = c1 * c2
    return TensorElement(e1.ctx, out)


def tensor_map(t, f_left, f_right):
    """Apply Element maps legwise; coefficients ride through the left map.

    Feeding each term's coefficient to f_left means a conjugate-linear
    pair of maps conjugates every coefficient exactly once, which is the
    convention needed for checks like D(h^*) = (* (x) *) D(h).
    """
    ctx = t.ctx
    return TensorElement.sum_of(ctx, (
        tensor_of(f_left(Element(ctx, {a: c})), f_right(Element(ctx, {b: ctx.one})))
        for (a, b), c in t.terms.items()))


def _qbinom_row(ctx, k, sign):
    """Gaussian binomials C(k, 0..k)_q with q = w^sign, by q-Pascal rows.

    C(i,0) = C(i,i) = 1 and C(i,t) = C(i-1,t-1) + q^t C(i-1,t).  The top
    row k = n - 1 is closed: C(n-1,t)_q = (-1)^t q^(-t(t+1)/2) (module
    docstring).
    """
    one = ctx.one
    if k == ctx.n - 1:
        row = [ctx.omega(-sign * t * (t + 1) // 2) for t in range(k + 1)]
        return [-c if t % 2 else c for t, c in enumerate(row)]
    row = [one]
    for i in range(1, k + 1):
        row = [one] + [row[t - 1] + ctx.omega(sign * t) * row[t]
                       for t in range(1, i)] + [one]
    return row


def delta_closed(ctx, mono):
    """Coproduct of one basis monomial by the closed formula.

    The two q-binomial rows are built once per call; distinct (i, j) give
    distinct tensor monomials, so no terms collect.
    """
    n = ctx.n
    r, s, l = mono
    x_row = _qbinom_row(ctx, s, -1)
    out = {}
    for i, ci in enumerate(_qbinom_row(ctx, r, 1)):
        for j, cj in enumerate(x_row):
            coeff = ci * cj
            e = -(r - i) * j % n
            if e:
                coeff = coeff * ctx.omega(e)
            left = Monomial(r - i, s - j, l)
            right = Monomial(i, j, (l + r - i + s - j) % n)
            out[(left, right)] = coeff
    return TensorElement(ctx, out)


def delta(e):
    """The coproduct: the linear extension of :func:`delta_closed`."""
    ctx = e.ctx
    return TensorElement.sum_of(ctx, (
        delta_closed(ctx, mono) if c == 1 else delta_closed(ctx, mono).scale(c)
        for mono, c in e.terms.items()))


def counit(e):
    """e(y^r x^s g^l) = e(y)^r e(x)^s e(g)^l, extended linearly.

    With e(g) = 1, e(x) = e(y) = 0 and 0^0 = 1 this is 1 when r = s = 0
    and 0 otherwise, so e is the multiplicative extension of its
    generator values by construction.
    """
    return sum((c for (r, s, _), c in e.terms.items() if r == s == 0), e.ctx.zero)


def antipode(e):
    """The antipode S, one signed monomial per basis monomial.

    S(y^r x^s g^l) = S(g)^l S(x)^s S(y)^r = g^(-l) (-x g^-1)^s (-y g^-1)^r.
    With the twist exponent l1 r2 + s1 r2 - l1 s2 of
    ``algebra._mono_mul_parts``:

    * (x g^-1)^s = w^(s(s-1)/2) x^s g^(-s), since the (k+1)-th factor
      moves g^-k past one x, costing w^k;
    * (y g^-1)^r = w^(-r(r-1)/2) y^r g^(-r), likewise costing w^-k;
    * g^(-l) x^s g^(-s) = w^(ls) x^s g^(-l-s);
    * x^s g^(-l-s) y^r g^(-r) = w^((-l-s)r + sr) y^r x^s g^(-l-s-r).

    Together

        S(y^r x^s g^l) = (-1)^(r+s) w^(s(s-1)/2 - r(r-1)/2 + l(s-r))
                         y^r x^s g^(-(l+r+s)).

    For fixed (r, s) the map l -> -(l+r+s) is a bijection mod n, so
    distinct terms of e land on distinct monomials.
    """
    ctx = e.ctx
    n = ctx.n
    out = {}
    for (r, s, l), c in e.terms.items():
        c = c * ctx.omega(s * (s - 1) // 2 - r * (r - 1) // 2 + l * (s - r))
        out[Monomial(r, s, -(l + r + s) % n)] = -c if (r + s) % 2 else c
    return Element(ctx, out)


def antipode_order(ctx):
    """Least k >= 1 with S^k the identity on H_n; it is 2n.

    S is antimultiplicative (checked here on the relation pairs), so S^2
    is an algebra map; it scales g, x, y by c = 1, w^-1, w (each image is
    checked to be a root of unity times its generator).  So S^(2j) = id
    exactly when c^j = 1 for every c.  An odd power of S is an
    anti-homomorphism, which the identity is not, since xg = w gx != gx.
    """
    if _relation_counterexample(ctx, antipode, mul, anti=True) is not None:
        raise KernelError("the antipode is not antimultiplicative")
    order = 1
    for b in GENERATOR_MONOMIALS:
        image = antipode(antipode(Element(ctx, {b: ctx.one}))).terms
        k = ctx.zeta_log(image[b]) if image.keys() == {b} else None
        if k is None:
            raise KernelError(f"S^2 does not scale {b} by a root of unity")
        order = lcm(order, ctx.m // gcd(k, ctx.m))
    return 2 * order


def triple_delta_sides(e):
    """The two triple coproducts ((D (x) id)D, (id (x) D)D) of an element,
    as ``SparseTerms`` over monomial triples, for coassociativity checks.

    The inner coproducts go through the name ``delta``, as the outer one.
    """
    ctx = e.ctx
    outer = delta(e).terms.items()

    def inner(mono):
        return delta(Element(ctx, {mono: ctx.one})).terms.items()

    return (
        SparseTerms.collect(ctx, (((u, v, b), c * c2)
                                  for (a, b), c in outer for (u, v), c2 in inner(a))),
        SparseTerms.collect(ctx, (((a, u, v), c * c2)
                                  for (a, b), c in outer for (u, v), c2 in inner(b))),
    )
