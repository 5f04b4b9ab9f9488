"""Generator maps of H_n: star structures, Hopf automorphisms, verifiers.

A star structure and a Hopf automorphism fixing g are both given by
their images of g, x and y (``GeneratorMap``) and extended along the
canonical words y^r x^s g^l:

* a star * conjugate-linearly and antimultiplicatively,
  y^r x^s g^l -> (g*)^l (x*)^s (y*)^r;
* an automorphism phi linearly and multiplicatively,
  y^r x^s g^l -> phi(y)^r phi(x)^s g^l.

A map is its role (star or automorphism) and its three images; its 2x2
``matrix`` is read off them.  Any images may be given, so that
impossibility arguments become executable negative tests; whether they
make a star is judged only where a star is used.  ``family_defect``
decides the paper's family, whose members are stars, which ``scan``
lists unverified.  A caller that uses a star passes it through one gate,
``require_star``, which judges it once: a member is admitted, and any
other star must pass ``verify_star_axioms``.

``verify_star_axioms`` decides the five defining conditions for all of
H_n by checking them on the six relation pairs and on g, x, y, and
reports every failed check with its first counterexample; failures are
data, not errors.  Images that break a relation pair define no star
map: their report omits the checks that would judge one.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import product
from operator import mul
from typing import NamedTuple

from . import coalgebra
from .algebra import (
    GENERATOR_MONOMIALS,
    Counterexample,
    Element,
    _map_law,
    _on_generators,
    _relation_counterexample,
    _unequal,
)
from .errors import InvalidStarStructureError, KernelError


class GeneratorMap:
    """A star structure or an automorphism, given by its images of g, x, y."""

    __slots__ = ("ctx", "g_img", "x_img", "y_img", "is_star")

    def __init__(self, ctx, g_img, x_img, y_img, is_star=True):
        self.ctx, self.is_star = ctx, is_star
        self.g_img, self.x_img, self.y_img = g_img, x_img, y_img

    @classmethod
    def from_matrix(cls, ctx, matrix, is_star=True):
        """g -> g, x -> a11 x + a12 y, y -> a21 x + a22 y."""
        a11, a12, a21, a22 = matrix
        _, x, y = GENERATOR_MONOMIALS
        return cls(ctx, Element.monomial(ctx, 0, 0, 1),
                   Element(ctx, {x: a11, y: a12}), Element(ctx, {x: a21, y: a22}),
                   is_star)

    @property
    def matrix(self):
        """(a11, a12, a21, a22), row-major, read off the images when g -> g,
        x -> a11 x + a12 y and y -> a21 x + a22 y; None for any other images."""
        g, x, y = GENERATOR_MONOMIALS
        imgs = (self.x_img.terms, self.y_img.terms)
        if self.g_img.terms != {g: self.ctx.one} or not {*imgs[0], *imgs[1]} <= {x, y}:
            return None
        return tuple(img.get(k, self.ctx.zero) for img in imgs for k in (x, y))

    def __eq__(self, other):
        """Same role, and the same images of g, x, y."""
        if not isinstance(other, GeneratorMap):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k)
                   for k in ("is_star", "g_img", "x_img", "y_img"))

    def __repr__(self):
        role = "star" if self.is_star else "automorphism"
        return f"GeneratorMap({role}, n={self.ctx.n}, m={self.ctx.m})"

    def of_monomial(self, mono):
        """Image of y^r x^s g^l, zero exponents skipped: (g*)^l (x*)^s (y*)^r
        for a star, phi(y)^r phi(x)^s phi(g)^l else."""
        pairs = ((self.y_img, mono.r), (self.x_img, mono.s), (self.g_img, mono.l))
        powers = [img ** k for img, k in (pairs[::-1] if self.is_star else pairs) if k]
        return reduce(mul, powers) if powers else Element.one(self.ctx)


def apply_map(f, e):
    """f(e): ``of_monomial`` extended linearly, conjugate-linearly for a star."""
    return Element.sum_of(f.ctx, (
        f.of_monomial(mono).scale(c.conjugate() if f.is_star else c)
        for mono, c in e.terms.items()))


def _mix_defect(ctx, a, images):
    """Why ``images`` = A (x, y), ``a`` row-major, is refused, or None: A
    mixes x and y, and only at n = 2 does a mix keep (g, x) and (g, y)."""
    if ctx.n != 2 and (a[1] or a[2]):
        return f"{images} mix x and y, which needs n = 2, got n = {ctx.n}"
    return None


def family_defect(ctx, a):
    """Why g* = g, (x*, y*) = A (x, y), ``a`` row-major, is outside the
    paper's family, or None: the family asks A diagonal unless n = 2, and
    conj(A) A = I, checked entry by entry."""
    if (defect := _mix_defect(ctx, a, "x* and y*")) is not None:
        return defect
    bar = [c.conjugate() for c in a]
    for i, j in product(range(2), repeat=2):
        entry = bar[2 * i] * a[j] + bar[2 * i + 1] * a[2 + j]
        if entry != int(i == j):
            return f"conj(A)A differs from I2 at entry ({i + 1},{j + 1})"
    return None


class CheckResult(NamedTuple):
    name: str
    passed: bool
    counterexample: Counterexample | None = None

    def __str__(self):
        """The line ``verify star`` prints: PASS or FAIL, the name, and the
        monomial or pair where the check failed."""
        line = f"{'PASS' if self.passed else 'FAIL'} {self.name}"
        if self.counterexample is not None:
            kind, at = self.counterexample.location
            line += f" at {at}" if kind == "monomial" else f" at ({at[0]}, {at[1]})"
        return line


class VerificationReport(NamedTuple):
    checks: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


def _report(named_counterexamples):
    return VerificationReport(tuple(
        CheckResult(name, ce is None, ce) for name, ce in named_counterexamples
    ))


def _scalar_map(ctx, f):
    """A scalar-valued map, as an Element-valued one: laws compare Elements."""
    return lambda e: Element.from_scalar(ctx, f(e))


def _hopf_certificate(ctx):
    """Check that D and e are multiplicative and S antimultiplicative.

    ``delta``, ``counit`` and ``antipode`` are the (anti)multiplicative
    extensions of their generator values along canonical words by
    construction (see ``coalgebra``), so the relation pairs decide these
    laws.  Each verifier call derives it anew, as the power pairs take no
    n-th power (``algebra._nilpotent``).  The closed forms cannot fail it,
    so a failure is a kernel fault, raised as ``KernelError`` with the law
    and its pair, not a verdict.
    """
    laws = (("delta_multiplicative", coalgebra.delta, coalgebra.tensor_mul, False),
            ("counit_multiplicative", _scalar_map(ctx, coalgebra.counit), mul, False),
            ("antipode_antimultiplicative", coalgebra.antipode, mul, True))
    for name, f, product, anti in laws:
        ce = _relation_counterexample(ctx, f, product, anti)
        if ce is not None:
            raise KernelError("D, e or S fails its relation check: "
                              "{} at ({}, {})".format(name, *ce.location[1]))


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
    star = partial(apply_map, st)
    delta, antipode, counit = coalgebra.delta, coalgebra.antipode, coalgebra.counit

    def on_generators(lhs, rhs):
        return _on_generators(_map_law(ctx, lhs, rhs))

    anti_ce = _relation_counterexample(ctx, star, mul, anti=True)
    checks = [("antimultiplicative", anti_ce)]
    if anti_ce is None:
        checks = [
            ("involution", on_generators(lambda e: star(star(e)), lambda e: e)),
            *checks,
            ("delta_compatible", on_generators(
                lambda e: delta(star(e)),
                lambda e: coalgebra.tensor_map(delta(e), star, star))),
            ("antipode_compatible", on_generators(
                lambda e: antipode(star(antipode(star(e)))), lambda e: e)),
        ]
    return _report(checks + [("counit_conjugate", on_generators(
        _scalar_map(ctx, lambda e: counit(star(e))),
        _scalar_map(ctx, lambda e: counit(e).conjugate())))])


def require_star(st):
    """Admit st when its matrix is in the paper's family, every member of
    which is a star; refuse any other st that fails ``verify_star_axioms``,
    naming its first failing check as ``verify star`` prints it."""
    if (a := st.matrix) is not None and family_defect(st.ctx, a) is None:
        return
    for c in verify_star_axioms(st).checks:
        if not c.passed:
            raise InvalidStarStructureError(f"not a star structure: {c}")


def _convolution_law(ctx, f, target):
    """Check of f * id = id * f = target on a basis monomial b, where
    (f * h)(b) = sum f(b1) h(b2) over D(b) = sum b1 (x) b2.  A failure
    keeps the two convolutions (f * id, id * f) as its sides."""

    def check(mono):
        eb = Element.monomial(ctx, *mono)
        legs = [(Element(ctx, {u: c}), Element(ctx, {v: ctx.one}))
                for (u, v), c in coalgebra.delta(eb).terms.items()]
        left = Element.sum_of(ctx, (f(eu) * ev for eu, ev in legs))
        right = Element.sum_of(ctx, (eu * f(ev) for eu, ev in legs))
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
    unit_counit = _scalar_map(ctx, coalgebra.counit)
    triple_sides = coalgebra.triple_delta_sides
    return _report([
        ("coassociativity", _on_generators(
            lambda b: _unequal(*triple_sides(Element.monomial(ctx, *b))))),
        ("counit_law", _on_generators(_convolution_law(ctx, unit_counit, lambda e: e))),
        ("antipode_law", _on_generators(
            _convolution_law(ctx, coalgebra.antipode, unit_counit))),
        ("delta_multiplicative", None),
        ("counit_multiplicative", None),
    ])
