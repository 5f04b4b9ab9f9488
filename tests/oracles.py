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
kernel's closed formulas.  The scan oracle runs a prescreen and the
verifier on every grid⁶ candidate pair, where the kernel lists only the
paper's family among them.  The cyclotomic polynomial oracle divides
X^m - 1 by Phi_d for every proper divisor d of m, where the kernel takes
the Moebius product.  The power oracle reduces each X^k mod Phi_m by
that division, where the kernel keeps the nonzeros of zeta^k in a
sparse table.  The q-binomial oracle builds the top row
C(n-1, .)_q from the q-Pascal recurrence, where the kernel writes it in
closed form.  The group-like oracle expands D(e) = e (x) e for any e,
where the kernel accepts only a single term g^l.  The Hopf oracle takes
any coproduct and builds its triple coproducts from it.  The map oracle
applies a star or an automorphism by multiplying its generator images
letter by letter along each basis word, where the kernel multiplies
powers of them.  The star and Hopf map oracles take its n^3 basis images
once and extend them linearly (conjugate-linearly for a star) to every
basis pair.  The Hopf map oracle checks through it that a map
is multiplicative and commutes with D on the whole basis, where the
kernel admits an automorphism by its matrix alone.  The relation pair
oracle checks a product law on the six relation pairs by the plain
product, where the kernel settles (x^(n-1), x) and (y^(n-1), y) by the
q-binomial theorem when it can.

The module also holds the helpers only tests use, so that the package
ships what the kernel calls: ``basis`` and ``generators`` (the kernel
checks only g, x, y and the relation pairs), ``FieldMatrix`` and
``field_nullspace`` (the elimination of ``radford.solver`` over Q(zeta_m),
which no kernel path calls), ``word_of_monomial`` for the rewriting
oracle, report lookups by check name, ``x_primitive_delta`` and
``inject_coproduct`` for negative fixtures, ``count_calls`` for spies,
``metered`` to run library code under the work budget of one call,
``tensor_from_json`` for round trips, ``load_schema``, ``dense_scalar``
for seeded scalars with every coordinate nonzero, ``make_star_matrix``
and ``make_star_diag`` for members of the paper's family, judged by
``family_defect`` as they are built (the kernel judges a star only where
a command uses it, in ``require_star``), ``star_json`` to spell a star
as a file, and
``verify_equivalence`` (the kernel's check that a given automorphism
carries one star to another, which no command runs).
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, combinations, product
from typing import NamedTuple

from radford.algebra import GENERATOR_MONOMIALS, Counterexample, Element, Monomial, \
    relation_pairs
from radford.classify import _carries, _require_automorphism
from radford.coalgebra import TensorElement, antipode, counit, delta, tensor_map, \
    tensor_mul, tensor_of
from radford.errors import InvalidStarStructureError, KernelError
from radford.jsonio import _mono_from_json, _term_objects, context_from_json, \
    context_to_json, scalar_from_json, scalar_to_json, star_to_json
from radford.scalars import MAX_WORK, _meter
from radford.solver import _nullspace_from_rows
from radford.star import GeneratorMap, family_defect, require_star, verify_star_axioms


def _poly_divmod(num, den):
    """(quotient, remainder) of integer polynomials, ascending, by a monic
    ``den``; ``num`` has no trailing zeros, and neither has the remainder."""
    assert den[-1] == 1
    num, dd = list(num), len(den) - 1
    q = [0] * max(len(num) - dd, 0)
    for k in range(len(num) - 1, dd - 1, -1):
        c = q[k - dd] = num[k]
        for j in range(dd + 1):
            num[k - dd + j] -= c * den[j]
    rem = num[:dd]
    while rem and not rem[-1]:
        rem.pop()
    return q, rem


def dense_scalar(ctx, seed, bound=1):
    """A scalar whose phi(m) coordinates are each a nonzero integer in
    [-bound, bound], drawn from ``seed``."""
    rng = random.Random(seed)
    values = [v for v in range(-bound, bound + 1) if v]
    return ctx.from_coords([rng.choice(values) for _ in range(ctx.degree)])


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


def power_oracle(m):
    """X^k mod Phi_m for 0 <= k < m, each as phi(m) ascending integers: the
    remainder of X times the one before by long division with Phi_m."""
    phi = cyclotomic_division_oracle(m)
    d = len(phi) - 1
    rows, rem = [], [1]
    for _ in range(m):
        rows.append(tuple(rem) + (0,) * (d - len(rem)))
        _, rem = _poly_divmod([0] + rem, phi)
    return rows


def basis(ctx):
    """All n^3 basis monomials in lexicographic (r, s, l) order."""
    n = ctx.n
    return [
        Monomial(r, s, l) for r in range(n) for s in range(n) for l in range(n)
    ]


def generators(ctx):
    """The generators (g, x, y) as Elements."""
    return tuple(Element(ctx, {b: ctx.one}) for b in GENERATOR_MONOMIALS)


def _unit(ctx, b):
    return Element(ctx, {b: ctx.one})


def _all_pairs(ctx, law):
    monos = basis(ctx)
    return all(law(_unit(ctx, a), _unit(ctx, b)) for a in monos for b in monos)


def _all_monomials(ctx, law):
    return all(law(_unit(ctx, b)) for b in basis(ctx))


def delta_oracle(ctx, mono, dx=None):
    """D(y)^r D(x)^s D(g)^l for mono = y^r x^s g^l, by tensor products;
    ``dx`` replaces D(x) = x (x) g + 1 (x) x."""
    g, x, y = GENERATOR_MONOMIALS
    one = Monomial(0, 0, 0)
    dg = TensorElement(ctx, {(g, g): ctx.one})
    if dx is None:
        dx = TensorElement(ctx, {(x, g): ctx.one, (one, x): ctx.one})
    dy = TensorElement(ctx, {(y, g): ctx.one, (one, y): ctx.one})
    acc = TensorElement(ctx, {(one, one): ctx.one})
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


def _triple_coproducts(e, d):
    """((d (x) id)d(e), (id (x) d)d(e)) over monomial triples, for any d."""
    ctx = e.ctx
    lhs = TensorElement.zero(ctx)
    rhs = TensorElement.zero(ctx)
    for (a, b), c in d(e).terms.items():
        lhs = lhs + TensorElement(ctx, {(u, v, b): c * c2
                                        for (u, v), c2 in d(_unit(ctx, a)).terms.items()})
        rhs = rhs + TensorElement(ctx, {(a, u, v): c * c2
                                        for (u, v), c2 in d(_unit(ctx, b)).terms.items()})
    return lhs, rhs


def relation_pair_oracle(ctx, f, mul, anti=False, pairs=None):
    """The first relation pair (a, b), of ``pairs`` if given, with
    f(ab) != mul(f(a), f(b)), or != mul(f(b), f(a)) when ``anti`` is set,
    as a ``Counterexample`` with both sides, or None: every pair by the
    plain product, with f(a^(n-1)) formed for the power pairs."""
    for pair in relation_pairs(ctx) if pairs is None else pairs:
        ea, eb = (_unit(ctx, mono) for mono in pair)
        fa, fb = f(ea), f(eb)
        lhs, rhs = f(ea * eb), mul(fb, fa) if anti else mul(fa, fb)
        if lhs != rhs:
            return Counterexample(("pair", pair), lhs, rhs)
    return None


def hopf_oracle(ctx, delta_fn=None):
    """Pass/fail per Hopf check name, over the whole basis and all pairs."""
    d = delta_fn if delta_fn is not None else delta

    def coassociative(e):
        lhs, rhs = _triple_coproducts(e, d)
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


def map_oracle(f, e):
    """f(e) for a ``GeneratorMap`` f, by multiplying its generator images
    letter by letter along each basis word: in reverse order and with the
    coefficient conjugated for a star, in order for an automorphism."""
    ctx = f.ctx
    images = {"G": f.g_img, "X": f.x_img, "Y": f.y_img}
    acc = Element.zero(ctx)
    for mono, c in e.terms.items():
        word = word_of_monomial(mono)
        if f.is_star:
            word, c = word[::-1], c.conjugate()
        image = Element.one(ctx)
        for letter in word:
            image = image * images[letter]
        acc = acc + image.scale(c)
    return acc


def _basis_map_oracle(f):
    """e -> f(e), from ``map_oracle`` on each basis monomial once, extended
    linearly, conjugate-linearly for a star: a law on all n^6 basis pairs
    reuses n^3 images."""
    ctx = f.ctx
    images = {b: map_oracle(f, _unit(ctx, b)) for b in basis(ctx)}

    def apply(e):
        acc = Element.zero(ctx)
        for mono, c in e.terms.items():
            acc = acc + images[mono].scale(c.conjugate() if f.is_star else c)
        return acc

    return apply


def star_oracle(st):
    """Pass/fail per star check name, over the whole basis and all pairs."""
    ctx = st.ctx
    star = _basis_map_oracle(st)

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


def hopf_map_oracle(phi):
    """phi(ab) = phi(a) phi(b) on every basis pair, and D phi = (phi (x) phi) D
    on every basis monomial."""
    ctx = phi.ctx
    f = _basis_map_oracle(phi)
    return (_all_pairs(ctx, lambda a, b: f(a * b) == f(a) * f(b))
            and _all_monomials(ctx, lambda e: delta(f(e)) == tensor_map(delta(e), f, f)))


def verify_equivalence(phi, st_a, st_b):
    """Whether phi carries st_a to st_b: phi(h^{*A}) = phi(h)^{*B} for all h.

    The kernel's own check, ``classify._carries``, behind its two gates:
    phi must be some psi_L (``classify.make_automorphism``), and a star
    outside the paper's family must pass ``verify_star_axioms``
    (``star.require_star``).  So both sides are conjugate-linear
    anti-homomorphisms, which agree everywhere once they agree on g, x
    and y.  No command checks a given automorphism, so the check lives
    here, for tests of the witnesses and of the gates.
    """
    _require_automorphism(phi)
    require_star(st_a)
    require_star(st_b)
    return _carries(phi, st_a, st_b)


def equivalence_oracle(phi, st_a, st_b):
    """phi(b^{*A}) = phi(b)^{*B} on every basis monomial."""
    return _all_monomials(
        phi.ctx,
        lambda e: map_oracle(phi, map_oracle(st_a, e))
        == map_oracle(st_b, map_oracle(phi, e)),
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


def grouplike_oracle(e):
    """Whether D(e) = e (x) e and eps(e) = 1, with D(e) expanded in full."""
    return counit(e) == 1 and delta(e) == tensor_of(e, e)


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
    return _invertible_point(_matrix_equation_kernel(
        st_a.ctx, st_a.matrix, st_b.matrix))


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
    ctx = st_a.ctx
    kernel = _matrix_equation_kernel(ctx, st_a.matrix, st_b.matrix)
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

    Same candidate space and order as ``classify.scan_star_candidates``,
    which lists only the paper's family within that space; here each
    candidate passes a generator-level prescreen (involution on g, x, y
    and the coproduct condition on the images), then the full verifier,
    with no argument about which candidates can survive.
    """
    if grid is None:
        grid = [ctx.zeta(k) for k in range(ctx.m)] + [ctx.zero]
    g_el = Element.monomial(ctx, 0, 0, 1)
    x_el = Element.monomial(ctx, 0, 1, 0)
    y_el = Element.monomial(ctx, 1, 0, 0)
    one = Element.one(ctx)

    def prescreen(st):
        if any(map_oracle(st, map_oracle(st, gen)) != gen
               for gen in (g_el, x_el, y_el)):
            return False
        star_g = map_oracle(st, g_el)
        for gen in (x_el, y_el):
            img = map_oracle(st, gen)
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
            st = GeneratorMap(ctx, g_img, x_img, y_img)
            if prescreen(st) and verify_star_axioms(st).all_passed:
                survivors.append(st)
    return survivors


def qbinom_pascal_oracle(ctx, k, sign):
    """C(k, 0..k)_q with q = w^sign, by the q-Pascal rows for every k.

    The kernel's ``coalgebra._qbinom_row`` writes the top row k = n - 1 in
    closed form; this builds it from the recurrence, as for every other row.
    """
    row = [ctx.one]
    for i in range(1, k + 1):
        row = [ctx.one] + [row[t - 1] + ctx.omega(sign * t) * row[t]
                           for t in range(1, i)] + [ctx.one]
    return row


def word_of_monomial(mono):
    """Letter expansion of a basis monomial in canonical order."""
    return "Y" * mono.r + "X" * mono.s + "G" * mono.l


class FieldMatrix:
    """Rectangular matrix of cyclotomic scalars."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise KernelError("ragged matrix rows")
        self.ctx = ctx
        self.rows = rows

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)


def field_nullspace(matrix):
    """Basis of the right nullspace of a FieldMatrix, by ``solver``'s elimination."""
    rows = [{j: v for j, v in enumerate(r) if v} for r in matrix.rows]
    return _nullspace_from_rows(rows, matrix.shape[1], matrix.ctx.one)


def failed_names(report):
    """Names of the failed checks of a verification report, in report order."""
    return [c.name for c in report.checks if not c.passed]


def named_check(report, name):
    """The check of a verification report with the given name."""
    for c in report.checks:
        if c.name == name:
            return c
    raise KeyError(name)


def x_primitive_delta(e):
    """Coproduct with D(x) replaced by x (x) 1 + 1 (x) x: no multiplicative
    extension, since D(g) D(x) != D(gx)."""
    ctx = e.ctx
    xm, one = Monomial(0, 1, 0), Monomial(0, 0, 0)
    acc = TensorElement.zero(ctx)
    for mono, c in e.terms.items():
        if mono == xm:
            acc = acc + TensorElement(ctx, {(xm, one): c, (one, xm): c})
        else:
            acc = acc + delta(Element(ctx, {mono: c}))
    return acc


def inject_coproduct(monkeypatch, d):
    """Make the verifiers read D as ``d``: ``star`` takes the certificate,
    the convolutions and, through ``coalgebra``, the triple coproducts by
    the name ``coalgebra.delta``."""
    monkeypatch.setattr("radford.coalgebra.delta", d)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that its calls from now on are counted;
    returns the count, as a function of no arguments."""
    calls = []
    f = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return lambda: len(calls)


@contextmanager
def metered(budget=MAX_WORK):
    """Run the body under a fresh budget of work, as ``cli.main`` runs a
    call; yields the meter, whose ``spent`` is the work done so far."""
    _meter.arm(budget)
    try:
        yield _meter
    finally:
        _meter.disarm()


def tensor_from_json(obj, ctx=None):
    """Decode a tensor of ``jsonio.tensor_to_json``, for round-trip tests."""
    term_objs = _term_objects(obj)
    if ctx is None:
        ctx = context_from_json(obj.get("context", {}))
    terms = {}
    for t in term_objs:
        pair = (_mono_from_json(ctx, t.get("left")),
                _mono_from_json(ctx, t.get("right")))
        terms[pair] = scalar_from_json(ctx, t.get("coeff", []))
    return TensorElement(ctx, terms)


def load_schema(name):
    """One of the JSON schemas shipped under radford/schemas."""
    import json
    from importlib import resources

    text = resources.files("radford").joinpath(f"schemas/{name}.json").read_text()
    return json.loads(text)


def make_star_matrix(ctx, a):
    """The star g* = g, (x*, y*) = A (x, y) of the paper's family, ``a``
    row-major; any other A is refused with its ``family_defect``."""
    if (defect := family_defect(ctx, a)) is not None:
        raise InvalidStarStructureError(defect)
    return GeneratorMap.from_matrix(ctx, a)


def make_star_diag(ctx, alpha, beta):
    """The star g* = g, x* = alpha x, y* = beta y of the paper's family."""
    return make_star_matrix(ctx, (alpha, ctx.zero, ctx.zero, beta))


def star_json(st, kind):
    """The star file of st in the spelling ``kind``: ``diag`` writes the
    diagonal of its matrix as alpha and beta, ``matrix2`` the matrix as a,
    and ``raw`` the images, as ``jsonio.star_to_json`` writes every star."""
    if kind == "raw":
        return star_to_json(st)
    out = {"kind": kind, "context": context_to_json(st.ctx)}
    if kind == "diag":
        out["alpha"], out["beta"] = (scalar_to_json(c) for c in st.matrix[::3])
    else:
        out["a"] = [scalar_to_json(c) for c in st.matrix]
    return out
