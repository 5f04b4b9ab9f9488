"""Classification machinery: equivalence of star structures and ``scan``.

Covers four jobs:

* Hopf algebra automorphisms of H_n fixing g, either diagonal rescalings
  (any n) or arbitrary invertible 2x2 mixes of x and y (n = 2 only);
  construction re-verifies the defining relations and the coproduct
  condition on generators instead of assuming them.
* Witness construction: for n > 2 every diagonal structure diag(alpha,
  beta) is carried to the trivial one by phi = diag(l(alpha), l(beta))
  with l(a) = (1 + conj(a))/2, or l(-1) = i.  This is the Cayley form of
  Hilbert's Theorem 90: conj(l(a)) = a l(a) for every norm-one a, so the
  witness lives in the input's own field and needs no square root.
* The n = 2 criterion: structures given by matrices A and B are
  equivalent iff an invertible Lambda solves A*Lambda = conj(Lambda)*B.
  The solution space is computed exactly over Q; det restricted to it is
  a quadratic form, which by polarization vanishes identically iff it
  vanishes at every basis vector e_i and every e_i + e_j, so testing
  those points decides the question.
* ``scan``: the star structures among lemma-shaped candidates on a
  grid.  Each generator image is screened once on the relation pairs
  that involve it alone, and only pairs of screened images face the
  verifier (README, "Why scan screens each image alone").
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from typing import NamedTuple

from . import solver
from .algebra import (
    GENERATOR_MONOMIALS,
    Element,
    Monomial,
    _first_counterexample,
    _unequal,
    basis,
    generators,
    relation_pairs,
)
from .coalgebra import delta, tensor_of
from .errors import InvalidAutomorphismError, KernelError
from .scalars import MAX_SCAN_CANDIDATES, unify_contexts
from .star import StarStructure, _antimult_counterexample, apply_star, \
    make_star_diag, verify_star_axioms


class Automorphism:
    """Hopf algebra automorphism fixing g, given by its images of x and y."""

    __slots__ = ("kind", "ctx", "x_img", "y_img", "lambda1", "lambda2",
                 "matrix", "_mono_cache")

    def __init__(self, kind, ctx, x_img, y_img, lambda1=None, lambda2=None,
                 matrix=None):
        self.kind = kind
        self.ctx = ctx
        self.x_img = x_img
        self.y_img = y_img
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        self.matrix = matrix
        self._mono_cache = {}

    def __repr__(self):
        return f"Automorphism(kind={self.kind!r}, n={self.ctx.n}, m={self.ctx.m})"

    def image_of_monomial(self, mono):
        hit = self._mono_cache.get(mono)
        if hit is None:
            g_img = Element.monomial(self.ctx, 0, 0, 1)
            hit = (self.y_img ** mono.r) * (self.x_img ** mono.s) \
                * (g_img ** mono.l)
            self._mono_cache[mono] = hit
        return hit


def _verify_hopf_map(ctx, x_img, y_img):
    """Relations and generator coproducts under g -> g, x -> x_img, y -> y_img."""
    g_el, _, _ = generators(ctx)
    one = Element.one(ctx)
    omega = ctx.omega_pow(1)
    n = ctx.n
    checks = [
        (x_img ** n, Element.zero(ctx), "x image is not nilpotent of order n"),
        (y_img ** n, Element.zero(ctx), "y image is not nilpotent of order n"),
        (x_img * g_el, (g_el * x_img).scale(omega), "xg = w gx breaks"),
        (g_el * y_img, (y_img * g_el).scale(omega), "gy = w yg breaks"),
        (x_img * y_img, (y_img * x_img).scale(omega), "xy = w yx breaks"),
    ]
    for got, want, msg in checks:
        if got != want:
            raise InvalidAutomorphismError(msg)
    for img in (x_img, y_img):
        want = tensor_of(img, g_el) + tensor_of(one, img)
        if delta(img) != want:
            raise InvalidAutomorphismError("coproduct condition fails on a generator")


def make_automorphism_diag(ctx, lambda1, lambda2):
    """phi(g) = g, phi(x) = lambda1 x, phi(y) = lambda2 y; lambdas nonzero."""
    if not lambda1 or not lambda2:
        raise InvalidAutomorphismError("diagonal automorphism needs nonzero scalars")
    x_img = Element.monomial(ctx, 0, 1, 0, lambda1)
    y_img = Element.monomial(ctx, 1, 0, 0, lambda2)
    _verify_hopf_map(ctx, x_img, y_img)
    return Automorphism("diag", ctx, x_img, y_img,
                        lambda1=lambda1, lambda2=lambda2)


def make_automorphism_matrix(ctx, entries):
    """n = 2 automorphism mixing x and y by an invertible matrix.

    ``entries`` is (l11, l12, l21, l22) row-major; phi(x) = l11 x + l12 y
    and phi(y) = l21 x + l22 y.
    """
    if ctx.n != 2:
        raise InvalidAutomorphismError(
            f"matrix automorphisms require n = 2, got n = {ctx.n}"
        )
    l11, l12, l21, l22 = entries
    det = l11 * l22 - l12 * l21
    if not det:
        raise InvalidAutomorphismError("matrix is singular")
    x_img = Element(ctx, {Monomial(0, 1, 0): l11, Monomial(1, 0, 0): l12})
    y_img = Element(ctx, {Monomial(0, 1, 0): l21, Monomial(1, 0, 0): l22})
    _verify_hopf_map(ctx, x_img, y_img)
    return Automorphism("matrix2", ctx, x_img, y_img, matrix=tuple(entries))


def apply_automorphism(phi, e):
    """Algebra-map extension of the generator images."""
    if e.ctx is not phi.ctx:
        e = e.embed(phi.ctx)
    acc = Element.zero(phi.ctx)
    for mono, c in e.terms.items():
        acc = acc + phi.image_of_monomial(mono).scale(c)
    return acc


def verify_equivalence(phi, st_a, st_b):
    """Whether phi carries st_a to st_b: phi(h^{*A}) = phi(h)^{*B} for all h.

    phi is an algebra map: its generator images passed the defining
    relations in ``_verify_hopf_map``.  When both stars are
    antimultiplicative on the relation pairs, both sides are
    conjugate-linear anti-homomorphisms, which agree everywhere once they
    agree on g, x and y; otherwise every basis monomial is compared.
    """
    ctx = phi.ctx
    st_a = st_a.embed(ctx)
    st_b = st_b.embed(ctx)
    if _antimult_counterexample(st_a) is None \
            and _antimult_counterexample(st_b) is None:
        points = GENERATOR_MONOMIALS
    else:
        points = basis(ctx)

    def check(b):
        eb = Element(ctx, {b: ctx.one})
        return _unequal(apply_automorphism(phi, apply_star(st_a, eb)),
                        apply_star(st_b, apply_automorphism(phi, eb)))

    return _first_counterexample("monomial", points, check) is None


def _cayley(a):
    """l with conj(l) = a * l for a norm-one scalar a, in a's own field.

    l = (1 + conj(a))/2 gives conj(l) = (1 + a)/2 = a * l because
    a conj(a) = 1; it vanishes only at a = -1, where l = i works.
    """
    ctx = a.ctx
    if a == -1:
        return ctx.i()
    return (ctx.one + a.conjugate()) * ctx.from_fraction(Fraction(1, 2))


def equivalence_witness_diag(st_a):
    """Automorphism carrying diag(alpha, beta) to the trivial diag(1, 1).

    Needs n > 2.  The witness diag(l(alpha), l(beta)) of ``_cayley``
    lives in the structure's own context, and it has already passed
    verify_equivalence when it is returned.
    """
    ctx = st_a.ctx
    if ctx.n <= 2:
        raise KernelError("diagonal witnesses apply to n > 2 only")
    if st_a.kind != "diag":
        raise KernelError("expected a diagonal star structure")
    phi = make_automorphism_diag(ctx, _cayley(st_a.alpha), _cayley(st_a.beta))
    trivial = make_star_diag(ctx, ctx.one, ctx.one)
    if not verify_equivalence(phi, st_a, trivial):
        raise KernelError("constructed witness failed verification")
    return phi


class EquivalenceResult(NamedTuple):
    """Outcome of an equivalence query; a True verdict carries a verified witness."""

    equivalent: bool
    witness: Automorphism | None
    nullspace_dimension: int | None


def _matrix_equation_kernel(ctx, a, b):
    """Q-basis of the Lambda in ctx^4 with A Lambda = conj(Lambda) B.

    A, B and Lambda are 2x2 matrices as row-major 4-tuples; the
    conjugate-linear system is rationalized and solved exactly.
    """
    system = solver.ConjugateLinearSystem(ctx, 4)
    for i in range(2):
        for j in range(2):
            terms = []
            for k in range(2):
                if a[2 * i + k]:
                    terms.append(solver.ConjTerm(a[2 * i + k], 2 * k + j, False))
                if b[2 * k + j]:
                    terms.append(solver.ConjTerm(-b[2 * k + j], 2 * i + k, True))
            system.add_equation(terms)
    return solver.rational_nullspace(solver.rationalize(system))


def _invertible_point(kernel):
    """An invertible Lambda in the Q-span of ``kernel``, or None if none exists.

    q(t) = det(sum t_i K_i) is a quadratic form, and in characteristic 0
    q(e_i + e_j) = q(e_i) + q(e_j) + 2 B(e_i, e_j), so q vanishes
    identically iff it vanishes at every e_i and every e_i + e_j.  Those
    points are tried in the order e_1..e_d, then e_i + e_j for i < j.
    """
    sums = ([u + v for u, v in zip(kernel[i], kernel[j])]
            for i, j in combinations(range(len(kernel)), 2))
    for lam in chain(kernel, sums):
        if lam[0] * lam[3] - lam[1] * lam[2]:
            return tuple(lam)
    return None


def solve_equivalence_n2(st_a, st_b):
    """Decide equivalence of two n = 2 matrix structures via A L = conj(L) B.

    The verdict is exact: an invertible point of the solution space is
    re-verified as a witness, and when ``_invertible_point`` finds none,
    no invertible complex solution exists (README, "Why equivalence needs
    no square roots and no search").
    """
    if st_a.kind != "matrix2" or st_b.kind != "matrix2":
        raise KernelError("both structures must be of matrix kind (n = 2)")
    ctx = unify_contexts(st_a.ctx, st_b.ctx)
    st_a = st_a.embed(ctx)
    st_b = st_b.embed(ctx)
    kernel = _matrix_equation_kernel(ctx, st_a.matrix, st_b.matrix)
    lam = _invertible_point(kernel)
    if lam is None:
        return EquivalenceResult(False, None, len(kernel))
    phi = make_automorphism_matrix(ctx, lam)
    if not verify_equivalence(phi, st_a, st_b):
        raise KernelError("solution of the matrix equation failed re-verification")
    return EquivalenceResult(True, phi, len(kernel))


def scan_star_candidates(ctx, grid=None):
    """Star structures among lemma-shaped candidates, each one verified.

    Candidates: g -> g^w for 1 <= w < n; for w = 1 the x and y images
    range over grid-combinations of {x, y, 1 - g}, and for w > 1 over
    grid multiples of 1 - g^w.  A relation pair without y involves only
    g* and x*, and one without x only g* and y*, so each image is
    screened once on its own pairs; survivors are returned in the order
    of the full x-image by y-image product, and each pair of screened
    images faces the involution on g, x, y and then the full verifier.
    """
    if grid is None:
        grid = [ctx.zeta(k) for k in range(ctx.m)] + [ctx.zero]
    k = len(grid)
    candidates = k ** 3 + (ctx.n - 2) * k + (k ** 4 if ctx.n == 2 else 0)
    if candidates > MAX_SCAN_CANDIDATES:
        raise KernelError(
            f"scan of {k} grid values at n={ctx.n} has {candidates} candidates, "
            f"above the limit {MAX_SCAN_CANDIDATES}; pass a smaller --grid")
    g_el, x_el, y_el = generators(ctx)
    one = Element.one(ctx)
    zero = Element.zero(ctx)
    pairs = relation_pairs(ctx)
    x_pairs = [p for p in pairs if not any(mono.r for mono in p)]
    y_pairs = [p for p in pairs if not any(mono.s for mono in p)]
    survivors = []
    for w in range(1, ctx.n):
        g_img = Element.monomial(ctx, 0, 0, w)
        if w == 1:
            images = [x_el.scale(c1) + y_el.scale(c2) + (one - g_el).scale(c3)
                      for c1 in grid for c2 in grid for c3 in grid]
        else:
            images = [(one - g_img).scale(c) for c in grid]
        x_imgs = [xi for xi in images if _antimult_counterexample(
            StarStructure("raw", ctx, g_img, xi, zero), x_pairs) is None]
        y_imgs = [yi for yi in images if _antimult_counterexample(
            StarStructure("raw", ctx, g_img, zero, yi), y_pairs) is None]
        for x_img in x_imgs:
            for y_img in y_imgs:
                st = StarStructure("raw", ctx, g_img, x_img, y_img)
                if all(apply_star(st, apply_star(st, gen)) == gen
                       for gen in (g_el, x_el, y_el)) \
                        and verify_star_axioms(st).all_passed:
                    survivors.append(st)
    return survivors
