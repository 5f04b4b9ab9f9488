"""Classification machinery: equivalence of star structures and ``scan``.

Covers three jobs:

* Hopf algebra automorphisms of H_n fixing g, as ``star.GeneratorMap``s
  built from an invertible 2x2 matrix: diagonal rescalings of x and y
  at any n, and arbitrary mixes of x and y at n = 2 only, each a Hopf
  automorphism (README, "Why scan lists the paper's family"), so a map
  is admitted by the matrix read off its images, with no relation check.
* The witness, Hilbert's Theorem 90 for GL_2: for every A with
  conj(A) A = I some L_c = c I + conj(c) conj(A), c in (1, i, 1 + i), is
  invertible, has A L_c = conj(L_c) and commutes with A, so
  L_A conj(L_B) / 4 carries A to B.  Every star that passes the verifier
  has such an A, read off its images, so all of them are equivalent,
  however their files spell them.  L_I / 2 = I, and for a diagonal
  A = diag(alpha, beta) against I this is the Cayley form
  l(a) = (1 + conj(a))/2, L_A / 2 = diag(l(alpha), l(beta)) when neither
  is -1.  The witness lives in the input's own field and takes no square
  root and no inverse.
* ``scan``: the star structures among lemma-shaped candidates on a
  grid, the grid points of the paper's family, listed and not verified
  (README, "Why scan lists the paper's family").

Every function takes all its values from one field context and changes
no conductor: combining two contexts raises ContextMismatchError.  The
CLI builds that one context, of conductor lcm(--m, each star file's m).
"""

from __future__ import annotations

from itertools import product

from .algebra import _map_law, _on_generators
from .errors import InvalidAutomorphismError, KernelError
from .scalars import CyclotomicScalar, _meter
from .star import GeneratorMap, _mix_defect, apply_map, family_defect, require_star


def _require_automorphism(phi):
    """phi, when it is a Hopf automorphism psi_L (README, "Why scan lists
    the paper's family"): g -> g, (x, y) -> L (x, y), L invertible and
    diagonal unless n = 2; else ``InvalidAutomorphismError``."""
    if phi.is_star or (lam := phi.matrix) is None:
        raise InvalidAutomorphismError("phi is no automorphism g -> g, (x, y) -> L (x, y)")
    if not _det(lam):
        raise InvalidAutomorphismError("matrix is singular")
    if (defect := _mix_defect(phi.ctx, lam, "phi(x) and phi(y)")) is not None:
        raise InvalidAutomorphismError(defect)
    return phi


def make_automorphism(ctx, matrix):
    """psi_L: phi(g) = g, phi(x) = l11 x + l12 y, phi(y) = l21 x + l22 y.

    ``matrix`` is L = (l11, l12, l21, l22), row-major, invertible, and
    diagonal unless n = 2: for n > 2 a mix of x and y breaks the relations
    g x = w^-1 x g and g y = w y g, since w != w^-1.
    """
    return _require_automorphism(GeneratorMap.from_matrix(ctx, matrix, is_star=False))


def _carries(phi, st_a, st_b):
    return _on_generators(_map_law(
        phi.ctx, lambda e: apply_map(phi, apply_map(st_a, e)),
        lambda e: apply_map(st_b, apply_map(phi, e)))) is None


def _det(m):
    return m[0] * m[3] - m[1] * m[2]


def _cayley_matrix(ctx, a):
    """Invertible L = c I + conj(c) conj(A) with A L = conj(L), for conj(A) A = I.

    conj(A) A = I gives A conj(A) = I, so A L = c A + conj(c) I = conj(L),
    and L commutes with A, as conj(A) = A^-1 does.  L is singular only
    when -c/conj(c) is an eigenvalue of conj(A), and c = 1, i, 1 + i give
    the three values -1, 1, -i.
    """
    a_bar = [v.conjugate() for v in a]
    for c in (ctx.one, ctx.i(), ctx.one + ctx.i()):
        cb = c.conjugate()
        lam = [cb * v for v in a_bar]
        lam[0] += c
        lam[3] += c
        if _det(lam):
            return lam
    raise KernelError("matrix star structure has conj(A)A != I")


def equivalence_witness(st_a, st_b):
    """Verified automorphism carrying star st_a to star st_b.

    Both pass ``require_star``, and then each has g* = g and x*, y* in
    span(x, y) (README, "Why scan lists the paper's family"), so its matrix
    A, read off the images, has conj(A) A = I.  Lambda = L_A conj(L_B) / 4
    of ``_cayley_matrix`` solves A Lambda = conj(Lambda) B, because
    conj(L_B) = B L_B and L_B commutes with B (README, "Why equivalence
    needs no square roots and no search"); it divides by no scalar.
    """
    require_star(st_a)
    require_star(st_b)
    a, b = st_a.matrix, st_b.matrix
    if a is None or b is None:
        raise KernelError("a verified star has g* != g or x*, y* outside span(x, y)")
    ctx = st_a.ctx
    p = _cayley_matrix(ctx, a)
    q = [v.conjugate() for v in _cayley_matrix(ctx, b)]
    quarter = CyclotomicScalar(ctx, ctx.one.num, 4)
    lam = tuple((p[2 * i] * q[j] + p[2 * i + 1] * q[2 + j]) * quarter
                for i in range(2) for j in range(2))
    phi = make_automorphism(ctx, lam)
    if not _carries(phi, st_a, st_b):
        raise KernelError("constructed witness failed verification")
    return phi


def _star_matrices(grid, off):
    """The matrices with conj(A) A = I and a12, a21 in ``off``, in
    product(grid, repeat=4) order, each row solved by lookup among the
    conj(b) c (README, "Why scan lists the paper's family").  When a12 != 0
    the first row fixes a21 and a22, judged by ``family_defect``; when
    a12 = 0, a11 and a22 are units (gap 1 - conj(c) c = 0) and
    conj(a21) a22 = -a21 conj(a11)."""
    bar = {c: c.conjugate() for c in grid}
    gap = {c: 1 - bar[c] * c for c in grid}
    units = dict.fromkeys(c for c in grid if not gap[c])
    scaled = {b: {bar[b] * c: c for c in grid} for b in off if b}
    for a11, a12 in product(grid, off):
        _meter.charge(60)  # the lookups and hashes, which no scalar product counts
        if a12:
            a21 = scaled[a12].get(gap[a11])
            a22 = scaled[a12].get(-(bar[a11] * a12))
            if a21 is not None and a22 is not None \
                    and family_defect(a11.ctx, (a11, a12, a21, a22)) is None:
                yield a11, a12, a21, a22
        elif a11 in units:
            for a21 in off:
                row = units if not a21 else [scaled[a21].get(-(a21 * bar[a11]))]
                yield from ((a11, a12, a21, a22) for a22 in row if a22 in units)


def scan_star_candidates(ctx, grid=None):
    """Star structures among lemma-shaped candidates.

    Candidates: g -> g^w for 1 <= w < n, with x and y images among the
    grid combinations of x, y, 1 - g at w = 1, or of 1 - g^w at w > 1.
    Only the paper's family can pass, and each member is a star (README,
    "Why scan lists the paper's family"), so ``_star_matrices`` lists it,
    with no verifier call; x and y mix only at n = 2 (``_mix_defect``)."""
    if grid is None:
        grid = [ctx.zeta(k) for k in range(ctx.m)] + [ctx.zero]
    first = {}
    for j, c in enumerate(grid, 1):
        if (i := first.setdefault(c, j)) != j:
            raise KernelError(f"scan grid repeats a value: values {i} and {j} "
                              "are equal; list each value once")
    if ctx.zero not in grid:
        return []
    survivors = []
    for a in _star_matrices(grid, grid if ctx.n == 2 else [ctx.zero]):
        # A member's images are built with no scalar work, which is metered.
        _meter.charge(100)
        survivors.append(GeneratorMap.from_matrix(ctx, a))
    return survivors
