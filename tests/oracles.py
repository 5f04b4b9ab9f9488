"""Basis-wide oracles for the generator-level certificates and the solver.

Each oracle checks its law on every basis monomial and every basis pair,
with no reduction to generators or relation pairs, so tests can compare
the kernel's verdicts with them check for check at small n.  The
skew-primitive oracle likewise solves on all n^3 basis columns, with no
restriction by bidegree.  Two n = 2 equivalence oracles solve
A L = conj(L) B as a Q-linearized conjugate-linear system, where the
kernel writes L down in closed form: one tests the polarization points
of det on the rational solution space, the other searches that space by
height.  The coproduct and antipode oracles build each
basis image as the (anti)multiplicative extension of the generator table,
D(y)^r D(x)^s D(g)^l and S(g)^l S(x)^s S(y)^r, for comparison with the
kernel's closed formulas.  The scan oracle runs the prescreen and the
verifier on every grid⁶ candidate pair instead of screening each image
on its own relation pairs first.  The cyclotomic polynomial oracle divides
X^m - 1 by Phi_d for every proper divisor d of m, where the kernel takes
the Moebius product.
"""

from fractions import Fraction
from itertools import chain, combinations, product
from typing import NamedTuple

from radford.algebra import GENERATOR_MONOMIALS, Element, Monomial, basis
from radford.classify import apply_automorphism
from radford.coalgebra import TensorElement, antipode, counit, delta, tensor_map, \
    tensor_mul, tensor_of, triple_delta_sides
from radford.errors import KernelError
from radford.scalars import _poly_divmod, unify_contexts
from radford.solver import _nullspace_from_rows
from radford.star import StarStructure, apply_star, verify_star_axioms


def cyclotomic_division_oracle(m, _cache={}):
    """Coefficients of Phi_m, ascending, by exact division of X^m - 1."""
    if m not in _cache:
        poly = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                poly, rem = _poly_divmod(poly, cyclotomic_division_oracle(d))
                assert not rem, f"Phi_{d} does not divide X^{m} - 1"
        _cache[m] = tuple(poly)
    return _cache[m]


def _unit(ctx, b):
    return Element(ctx, {b: ctx.one})


def _all_pairs(ctx, law):
    monos = basis(ctx)
    return all(law(_unit(ctx, a), _unit(ctx, b)) for a in monos for b in monos)


def _all_monomials(ctx, law):
    return all(law(_unit(ctx, b)) for b in basis(ctx))


def delta_oracle(ctx, mono):
    """D(y)^r D(x)^s D(g)^l for mono = y^r x^s g^l, by tensor products."""
    g, x, y = GENERATOR_MONOMIALS
    one = Monomial(0, 0, 0)
    dg = TensorElement(ctx, {(g, g): ctx.one})
    dx = TensorElement(ctx, {(x, g): ctx.one, (one, x): ctx.one})
    dy = TensorElement(ctx, {(y, g): ctx.one, (one, y): ctx.one})
    acc = TensorElement.basis_term(ctx, one, one)
    for factor, k in ((dy, mono.r), (dx, mono.s), (dg, mono.l)):
        for _ in range(k):
            acc = tensor_mul(acc, factor)
    return acc


def antipode_oracle(ctx, mono):
    """S(g)^l S(x)^s S(y)^r for mono = y^r x^s g^l, by Element powers."""
    k = ctx.n - 1
    sg = Element.monomial(ctx, 0, 0, k)
    sx = Element.monomial(ctx, 0, 1, k, -ctx.one)
    sy = Element.monomial(ctx, 1, 0, k, -ctx.one)
    return (sg ** mono.l) * (sx ** mono.s) * (sy ** mono.r)


def hopf_oracle(ctx, delta_fn=None):
    """Pass/fail per Hopf check name, over the whole basis and all pairs."""
    d = delta_fn if delta_fn is not None else delta

    def coassociative(e):
        lhs, rhs = triple_delta_sides(e, d)
        return lhs == rhs

    def counit_law(e):
        left = Element.zero(ctx)
        right = Element.zero(ctx)
        for (u, v), c in d(e).terms.items():
            left = left + Element(ctx, {v: c}).scale(counit(_unit(ctx, u)))
            right = right + Element(ctx, {u: c}).scale(counit(_unit(ctx, v)))
        return left == e and right == e

    def antipode_law(e):
        target = Element.from_scalar(ctx, counit(e))
        left = Element.zero(ctx)
        right = Element.zero(ctx)
        for (u, v), c in d(e).terms.items():
            eu = Element(ctx, {u: c})
            ev = _unit(ctx, v)
            left = left + antipode(eu) * ev
            right = right + eu * antipode(ev)
        return left == target and right == target

    return {
        "coassociativity": _all_monomials(ctx, coassociative),
        "counit_law": _all_monomials(ctx, counit_law),
        "antipode_law": _all_pairs(
            ctx, lambda a, b: antipode(a * b) == antipode(b) * antipode(a))
        and _all_monomials(ctx, antipode_law),
        "delta_multiplicative": _all_pairs(
            ctx, lambda a, b: d(a * b) == tensor_mul(d(a), d(b))),
        "counit_multiplicative": _all_pairs(
            ctx, lambda a, b: counit(a * b) == counit(a) * counit(b)),
    }


def star_oracle(st):
    """Pass/fail per star check name, over the whole basis and all pairs."""
    ctx = st.ctx

    def star(e):
        return apply_star(st, e)

    return {
        "involution": _all_monomials(ctx, lambda e: star(star(e)) == e),
        "antimultiplicative": _all_pairs(
            ctx, lambda a, b: star(a * b) == star(b) * star(a)),
        "delta_compatible": _all_monomials(
            ctx, lambda e: delta(star(e)) == tensor_map(delta(e), star, star)),
        "antipode_compatible": _all_monomials(
            ctx, lambda e: antipode(star(antipode(star(e)))) == e),
        "counit_conjugate": _all_monomials(
            ctx, lambda e: counit(star(e)) == counit(e).conjugate()),
    }


def equivalence_oracle(phi, st_a, st_b):
    """phi(b^{*A}) = phi(b)^{*B} on every basis monomial."""
    ctx = phi.ctx
    st_a = st_a.embed(ctx)
    st_b = st_b.embed(ctx)
    return _all_monomials(
        ctx,
        lambda e: apply_automorphism(phi, apply_star(st_a, e))
        == apply_star(st_b, apply_automorphism(phi, e)),
    )


def antipode_order_oracle(ctx, limit=100):
    """Least k with S^k fixing every basis monomial, by brute force."""
    units = [_unit(ctx, b) for b in basis(ctx)]
    current = [antipode(e) for e in units]
    for k in range(1, limit + 1):
        if current == units:
            return k
        current = [antipode(e) for e in current]
    raise AssertionError(f"antipode order exceeds {limit}")


def skew_primitive_oracle(ctx, w):
    """Basis of {h : D(h) = h (x) g^w + 1 (x) h} from all n^3 columns."""
    monos = basis(ctx)
    one_m = Monomial(0, 0, 0)
    gw = Monomial(0, 0, w)
    rows_by_key = {}
    for col, b in enumerate(monos):
        image = delta(_unit(ctx, b))
        # Subtract as two tensors: the keys coincide when b = 1 and w = 0.
        image = image - TensorElement(ctx, {(b, gw): ctx.one})
        image = image - TensorElement(ctx, {(one_m, b): ctx.one})
        for pair, c in image.terms.items():
            rows_by_key.setdefault(pair, {})[col] = c
    rows = [rows_by_key[k] for k in sorted(rows_by_key)]
    return [
        Element(ctx, {m: c for m, c in zip(monos, vec) if c})
        for vec in _nullspace_from_rows(rows, len(monos), ctx.one)
    ]


class ConjTerm(NamedTuple):
    """One summand  coeff * u_var  or  coeff * conj(u_var)  of an equation."""

    coeff: object
    var: int
    conjugated: bool = False


class ConjugateLinearSystem:
    """Homogeneous system of conjugate-linear equations in scalar unknowns."""

    def __init__(self, ctx, num_vars):
        self.ctx = ctx
        self.num_vars = num_vars
        self.equations = []

    def add_equation(self, terms):
        for t in terms:
            if not 0 <= t.var < self.num_vars:
                raise KernelError(f"unknown index {t.var} out of range")
        self.equations.append(list(terms))


class RationalizedSystem(NamedTuple):
    """Q-matrix acting on the stacked rational coordinates of the unknowns."""

    ctx: object
    num_vars: int
    matrix: list


def rationalize(system):
    """Expand scalar unknowns into phi(m) rational unknowns each.

    A coefficient acting on an unknown contributes the coordinates of
    coeff * zeta^j; acting on a conjugated unknown it contributes those
    of coeff * zeta^(-j), the exact matrix of conjugation in the power
    basis.
    """
    ctx = system.ctx
    d = ctx.degree
    width = system.num_vars * d
    matrix = []
    for eq in system.equations:
        block = [[Fraction(0)] * width for _ in range(d)]
        for term in eq:
            for j in range(d):
                z = ctx.zeta(-j) if term.conjugated else ctx.zeta(j)
                col = term.var * d + j
                for i, coord in enumerate((term.coeff * z).coords):
                    if coord:
                        block[i][col] += coord
        matrix.extend(block)
    return RationalizedSystem(ctx, system.num_vars, matrix)


def rational_nullspace(rsystem):
    """Kernel of a rationalized system as scalar assignments per unknown."""
    ctx = rsystem.ctx
    d = ctx.degree
    rows = [{j: v for j, v in enumerate(r) if v} for r in rsystem.matrix]
    return [
        [ctx.from_coords(vec[v * d:(v + 1) * d]) for v in range(rsystem.num_vars)]
        for vec in _nullspace_from_rows(rows, rsystem.num_vars * d, Fraction(1))
    ]


def substitute(system, assignment):
    """Evaluate every equation at an assignment; the residual scalars."""
    out = []
    for eq in system.equations:
        acc = system.ctx.zero
        for term in eq:
            u = assignment[term.var]
            if term.conjugated:
                u = u.conjugate()
            acc = acc + term.coeff * u
        out.append(acc)
    return out


def _matrix_equation_kernel(ctx, a, b):
    """Q-basis of the Lambda in ctx^4 with A Lambda = conj(Lambda) B.

    A, B and Lambda are 2x2 matrices as row-major 4-tuples; the
    conjugate-linear system is rationalized and solved exactly.
    """
    system = ConjugateLinearSystem(ctx, 4)
    for i in range(2):
        for j in range(2):
            terms = []
            for k in range(2):
                if a[2 * i + k]:
                    terms.append(ConjTerm(a[2 * i + k], 2 * k + j, False))
                if b[2 * k + j]:
                    terms.append(ConjTerm(-b[2 * k + j], 2 * i + k, True))
            system.add_equation(terms)
    return rational_nullspace(rationalize(system))


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


def n2_polarization_oracle(st_a, st_b):
    """Invertible L with A L = conj(L) B from the rational kernel, or None.

    The verdict is exact, because rational points decide the complex
    question.  Since 4 | m, the field is K = K0(i) with K0 = K cap R.
    Write L = P + iQ with P, Q real: the equations split into real and
    imaginary parts with coefficients in K0, so the system is K0-linear
    in (P, Q), and its real solution space is the R-span of its
    K0-solutions, which are the K-points the Q-basis spans.  det is a
    polynomial function on that real space; if it vanishes on every
    rational combination of the basis it is the zero polynomial, and no
    complex L is invertible.
    """
    ctx = unify_contexts(st_a.ctx, st_b.ctx)
    return _invertible_point(_matrix_equation_kernel(
        ctx, st_a.embed(ctx).matrix, st_b.embed(ctx).matrix))


def _search_values(height_bound):
    vals = {Fraction(p, q) for q in range(1, height_bound + 1)
            for p in range(-height_bound, height_bound + 1) if p}
    return sorted(vals, key=lambda f: (max(abs(f.numerator), f.denominator),
                                       f.denominator, abs(f.numerator), f < 0))


def n2_search_oracle(st_a, st_b, height_bound=3, max_candidates=200_000):
    """Invertible L with A L = conj(L) B by bounded search, or a verdict.

    Enumerates rational combinations of the kernel basis, fewest nonzero
    coefficients first, values by ascending height up to
    ``height_bound``.  Returns the first invertible L as a 4-tuple, False
    when the solution space is zero, and None when the search runs out.
    """
    ctx = unify_contexts(st_a.ctx, st_b.ctx)
    kernel = _matrix_equation_kernel(
        ctx, st_a.embed(ctx).matrix, st_b.embed(ctx).matrix)
    if not kernel:
        return False
    values = _search_values(height_bound)
    tried = 0
    for nnz in range(1, len(kernel) + 1):
        for positions in combinations(range(len(kernel)), nnz):
            for coeffs in product(values, repeat=nnz):
                tried += 1
                if tried > max_candidates:
                    return None
                lam = [ctx.zero] * 4
                for pos, cf in zip(positions, coeffs):
                    scale = ctx.from_fraction(cf)
                    lam = [u + scale * v for u, v in zip(lam, kernel[pos])]
                if lam[0] * lam[3] - lam[1] * lam[2]:
                    return tuple(lam)
    return None


def scan_oracle(ctx, grid=None):
    """Every grid⁶ (x*, y*) candidate of the scan, one by one.

    Same candidate space and order as ``classify.scan_star_candidates``;
    each candidate passes a generator-level prescreen (involution on g,
    x, y and the coproduct condition on the images), then the full
    verifier, with no screening of the images on their own pairs.
    """
    if grid is None:
        grid = [ctx.zeta(k) for k in range(ctx.m)] + [ctx.zero]
    g_el = Element.monomial(ctx, 0, 0, 1)
    x_el = Element.monomial(ctx, 0, 1, 0)
    y_el = Element.monomial(ctx, 1, 0, 0)
    one = Element.one(ctx)

    def prescreen(st):
        if any(apply_star(st, apply_star(st, gen)) != gen
               for gen in (g_el, x_el, y_el)):
            return False
        star_g = apply_star(st, g_el)
        for gen in (x_el, y_el):
            img = apply_star(st, gen)
            if delta(img) != tensor_of(img, star_g) + tensor_of(one, img):
                return False
        return delta(star_g) == tensor_of(star_g, star_g)

    survivors = []
    for w in range(1, ctx.n):
        g_img = Element.monomial(ctx, 0, 0, w)
        if w == 1:
            images = [x_el.scale(c1) + y_el.scale(c2) + (one - g_el).scale(c3)
                      for c1 in grid for c2 in grid for c3 in grid]
        else:
            images = [(one - g_img).scale(c) for c in grid]
        for x_img, y_img in product(images, repeat=2):
            st = StarStructure("raw", ctx, g_img, x_img, y_img)
            if prescreen(st) and verify_star_axioms(st).all_passed:
                survivors.append(st)
    return survivors
