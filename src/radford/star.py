"""Star structures on H_n and the axiom verifier.

A star structure is a conjugate-linear map determined by generator
images.  Three kinds are supported:

* ``diag``:     g -> g, x -> alpha*x, y -> beta*y with |alpha| = |beta| = 1
                (valid for every n).
* ``matrix2``:  n = 2 only; g -> g, x -> a11*x + a12*y, y -> a21*x + a22*y
                with conj(A)*A = I2.
* ``raw``:      arbitrary candidate images with no validity promise, so
                that impossibility arguments become executable negative
                tests.

``verify_star_axioms`` decides the five defining conditions for all of
H_n by checking them on the six relation pairs and on g, x, y, and
reports every failed check with its first counterexample; failures are
data, not errors.  Images that break a relation pair define no star
map: their report omits the checks that would judge one.
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import NamedTuple

from .algebra import (
    GENERATOR_MONOMIALS,
    Counterexample,
    Element,
    Monomial,
    _first_counterexample,
    _map_law,
    _product_law,
    _unequal,
    relation_pairs,
)
from .coalgebra import (
    antipode,
    counit,
    delta,
    tensor_map,
    tensor_mul,
    triple_delta_sides,
)
from .errors import InvalidStarStructureError, KernelError


class StarStructure:
    """Generator images defining a candidate or validated star map."""

    __slots__ = ("kind", "ctx", "g_img", "x_img", "y_img", "alpha", "beta",
                 "matrix", "_mono_cache")

    def __init__(self, kind, ctx, g_img, x_img, y_img,
                 alpha=None, beta=None, matrix=None):
        self.kind = kind
        self.ctx = ctx
        self.g_img = g_img
        self.x_img = x_img
        self.y_img = y_img
        self.alpha = alpha
        self.beta = beta
        self.matrix = matrix
        self._mono_cache = {}

    def __eq__(self, other):
        if not isinstance(other, StarStructure):
            return NotImplemented
        return (self.kind, self.g_img, self.x_img, self.y_img) \
            == (other.kind, other.g_img, other.x_img, other.y_img)

    def __hash__(self):
        return hash((self.kind, self.g_img, self.x_img, self.y_img))

    def __repr__(self):
        return f"StarStructure(kind={self.kind!r}, n={self.ctx.n}, m={self.ctx.m})"

    def star_of_monomial(self, mono):
        """(g*)^l (x*)^s (y*)^r, cached per structure; zero exponents skipped."""
        hit = self._mono_cache.get(mono)
        if hit is None:
            pairs = ((self.g_img, mono.l), (self.x_img, mono.s), (self.y_img, mono.r))
            powers = [img ** k for img, k in pairs if k]
            hit = powers[0] if powers else Element.one(self.ctx)
            for p in powers[1:]:
                hit = hit * p
            self._mono_cache[mono] = hit
        return hit


def make_star_diag(ctx, alpha, beta):
    """Validated diagonal structure g* = g, x* = alpha x, y* = beta y."""
    if not alpha.is_norm_one():
        raise InvalidStarStructureError("alpha fails the norm-one precondition")
    if not beta.is_norm_one():
        raise InvalidStarStructureError("beta fails the norm-one precondition")
    return StarStructure("diag", ctx, Element.monomial(ctx, 0, 0, 1),
                         Element.monomial(ctx, 0, 1, 0, alpha),
                         Element.monomial(ctx, 1, 0, 0, beta), alpha=alpha, beta=beta)


def _star_matrix_defect(entries):
    """First entry (i, j) of conj(A)A != I2, 1-based, A row-major, or None."""
    for i in range(2):
        for j in range(2):
            got = entries[2 * i].conjugate() * entries[j] \
                + entries[2 * i + 1].conjugate() * entries[2 + j]
            if got != int(i == j):
                return i + 1, j + 1
    return None


def _matrix_images(ctx, entries):
    """(a11 x + a12 y, a21 x + a22 y) for ``entries`` (a11, a12, a21, a22)."""
    a11, a12, a21, a22 = entries
    return (Element(ctx, {Monomial(0, 1, 0): a11, Monomial(1, 0, 0): a12}),
            Element(ctx, {Monomial(0, 1, 0): a21, Monomial(1, 0, 0): a22}))


def make_star_matrix(ctx, entries):
    """Validated n = 2 structure from a 2x2 matrix with conj(A)A = I2.

    ``entries`` is (a11, a12, a21, a22) row-major.
    """
    if ctx.n != 2:
        raise InvalidStarStructureError(
            f"matrix star structures require n = 2, got n = {ctx.n}"
        )
    bad = _star_matrix_defect(entries)
    if bad is not None:
        raise InvalidStarStructureError(
            f"conj(A)A differs from I2 at entry ({bad[0]},{bad[1]})")
    return StarStructure("matrix2", ctx, Element.monomial(ctx, 0, 0, 1),
                         *_matrix_images(ctx, entries), matrix=tuple(entries))


def make_star_raw(ctx, g_img, x_img, y_img):
    """Unvalidated candidate images, for feeding to the verifier."""
    return StarStructure("raw", ctx, g_img, x_img, y_img)


def apply_star(st, e):
    """Conjugate-linear antimultiplicative extension of the images."""
    acc = Element.zero(st.ctx)
    for mono, c in e.terms.items():
        acc = acc + st.star_of_monomial(mono).scale(c.conjugate())
    return acc


class CheckResult(NamedTuple):
    name: str
    passed: bool
    counterexample: Counterexample | None = None


class VerificationReport(NamedTuple):
    checks: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


def _report(named_counterexamples):
    return VerificationReport(tuple(
        CheckResult(name, ce is None, ce) for name, ce in named_counterexamples
    ))


def _antimult_counterexample(st):
    """First relation pair (a, b) with (ab)* != b* a*.

    ``apply_star`` is the conjugate-linear antimultiplicative extension of
    the generator images, so None means * is antimultiplicative on H_n.
    """
    ctx = st.ctx
    return _first_counterexample("pair", relation_pairs(ctx), _product_law(
        ctx, lambda e: apply_star(st, e), mul, anti=True))


def require_extension(st):
    """Refuse a ``raw`` st whose images break a relation pair, as they extend
    to no star map; ``diag`` and ``matrix2`` images respect the relations."""
    ce = _antimult_counterexample(st) if st.kind == "raw" else None
    if ce is not None:
        raise InvalidStarStructureError("the star images break antimultiplicativity "
                                        "at ({}, {})".format(*ce.location[1]))


def _scalar_map(ctx, f):
    """A scalar-valued map, as an Element-valued one: laws compare Elements."""
    return lambda e: Element.from_scalar(ctx, f(e))


@cache
def _hopf_certificate(ctx):
    """Check that D and e are multiplicative and S antimultiplicative.

    ``delta``, ``counit`` and ``antipode`` are the (anti)multiplicative
    extensions of their generator values along canonical words by
    construction (see ``coalgebra``), so the relation pairs decide these
    laws.  Derived once per context: no star structure enters it, so
    ``scan`` shares it across structures.  The closed forms cannot fail
    it, so a failure is a kernel fault, raised as ``KernelError`` with the
    law and its pair, not a verdict.
    """
    laws = (("delta_multiplicative", _product_law(ctx, delta, tensor_mul)),
            ("counit_multiplicative", _product_law(ctx, _scalar_map(ctx, counit), mul)),
            ("antipode_antimultiplicative",
             _product_law(ctx, antipode, mul, anti=True)))
    for name, law in laws:
        ce = _first_counterexample("pair", relation_pairs(ctx), law)
        if ce is not None:
            raise KernelError("D, e or S fails its relation check: "
                              "{} at ({}, {})".format(name, *ce.location[1]))


def _on_generators(check):
    """First failure of ``check`` among g, x, y."""
    return _first_counterexample("monomial", GENERATOR_MONOMIALS, check)


def verify_star_axioms(st):
    """The five star-structure axioms, decided for all of H_n.

    Checks: (1) involution, (2) antimultiplicativity, (3) coproduct
    compatibility, (4) S(S(h*)*) = h, (5) counit conjugation.  (2) runs on
    the relation pairs, which decides it.  When it holds (and D, e, S pass
    theirs, as the closed forms do), the two sides of each of (1), (3),
    (4), (5) are maps of one kind: ** and S*S* algebra maps, D* and
    (* (x) *)D conjugate-linear anti-maps, e* and conj(e) conjugate-linear
    algebra maps to the scalars, so they agree everywhere once they agree
    on g, x, y.  When (2) fails the images extend to no star map, and the
    report holds (2) and (5) only.  (5) needs only e multiplicative: e(b*)
    and conj(e(b)) are products of their values on g, x, y in any order.
    """
    ctx = st.ctx
    _hopf_certificate(ctx)

    def star(e):
        return apply_star(st, e)

    def on_generators(lhs, rhs):
        return _on_generators(_map_law(ctx, lhs, rhs))

    anti_ce = _antimult_counterexample(st)
    checks = [("antimultiplicative", anti_ce)]
    if anti_ce is None:
        checks = [
            ("involution", on_generators(lambda e: star(star(e)), lambda e: e)),
            *checks,
            ("delta_compatible", on_generators(
                lambda e: delta(star(e)), lambda e: tensor_map(delta(e), star, star))),
            ("antipode_compatible", on_generators(
                lambda e: antipode(star(antipode(star(e)))), lambda e: e)),
        ]
    return _report(checks + [("counit_conjugate", on_generators(
        _scalar_map(ctx, lambda e: counit(star(e))),
        _scalar_map(ctx, lambda e: counit(e).conjugate())))])


def _convolution_law(ctx, f, target):
    """Check of f * id = id * f = target on a basis monomial b, where
    (f * h)(b) = sum f(b1) h(b2) over D(b) = sum b1 (x) b2.  A failure
    keeps the two convolutions (f * id, id * f) as its sides."""

    def check(mono):
        eb = Element.monomial(ctx, *mono)
        left = right = Element.zero(ctx)
        for (u, v), c in delta(eb).terms.items():
            eu, ev = Element(ctx, {u: c}), Element(ctx, {v: ctx.one})
            left = left + f(eu) * ev
            right = right + eu * f(ev)
        want = target(eb)
        return None if left == want and right == want else (left, right)

    return check


def verify_hopf_axioms(ctx):
    """Hopf-axiom report, decided for all of H_n on g, x, y.

    The certificate shows D and e multiplicative and S antimultiplicative,
    so ``delta_multiplicative`` and ``counit_multiplicative`` pass.  Then
    both sides of coassociativity are algebra maps, and so are
    (e (x) id)D and (id (x) e)D, the two sides of the counit law read as
    the convolutions 1e * id = id * 1e = id.  The antipode law
    S * id = id * S = 1e holds on a set closed under products, since
    (S * id)(ab) = sum S(b1) S(a1) a2 b2 = e(a) e(b).  So each law holds
    on H_n once it holds on g, x, y.
    """
    _hopf_certificate(ctx)
    unit_counit = _scalar_map(ctx, counit)
    return _report([
        ("coassociativity", _on_generators(
            lambda b: _unequal(*triple_delta_sides(Element.monomial(ctx, *b))))),
        ("counit_law", _on_generators(_convolution_law(ctx, unit_counit, lambda e: e))),
        ("antipode_law", _on_generators(_convolution_law(ctx, antipode, unit_counit))),
        ("delta_multiplicative", None),
        ("counit_multiplicative", None),
    ])
