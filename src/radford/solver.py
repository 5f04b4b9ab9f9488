"""Exact linear algebra over Q(zeta_m): nullspaces and skew-primitives.

* one sparse Gauss-Jordan elimination with deterministic pivoting, for
  any exact field.  On the at most n + 2 basis monomials a skew-primitive
  can use (g^l, and x and y when w = 1; see ``skew_primitive_space``) it
  solves h -> D(h) - h (x) g^w - 1 (x) h, which gives the skew-primitive
  spaces exactly.  ``tests/oracles.py`` also runs it over Q, on
  Q-linearized conjugate-linear systems;
* a group-likeness predicate D(e) = e (x) e, eps(e) = 1.
"""

from __future__ import annotations

from .algebra import Element, Monomial
from .coalgebra import TensorElement, counit, delta, tensor_of
from .errors import KernelError


def _nullspace_from_rows(rows, ncols, one):
    """Kernel basis from sparse constraint rows (dicts col -> scalar).

    One sparse Gauss-Jordan elimination for any exact field whose unit is
    ``one`` (a cyclotomic scalar or ``Fraction(1)``).  Rows are consumed in
    the order given; within a row the pivot is its first nonzero column,
    so the elimination is fully deterministic.  Returns dense vectors, one
    per free column in ascending order; as the reduced echelon form is
    unique, they do not depend on the row order.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                inv = one / row.pop(c)
                pivots[c] = {j: v * inv for j, v in row.items()}
                break
            _eliminate(row, row.pop(c), p)
    # Back-eliminate to reduced echelon form for a canonical kernel basis.
    for c in sorted(pivots, reverse=True):
        prow = pivots[c]
        for c2, prow2 in pivots.items():
            if c2 < c and c in prow2:
                _eliminate(prow2, prow2.pop(c), prow)
    zero = one - one
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for c, prow in pivots.items():
            v = prow.get(f)
            if v is not None:
                vec[c] = -v
        out.append(vec)
    return out


# The elimination under a second name, which the per-layer tracer
# (perfbench/tracing.py) wraps and times apart from field solves.
_rational_kernel = _nullspace_from_rows


def _eliminate(row, coef, prow):
    """row -= coef * prow in place, dropping entries that become zero."""
    for j, v in prow.items():
        w = coef * v
        old = row.get(j)
        nv = -w if old is None else old - w
        if nv:
            row[j] = nv
        else:
            row.pop(j, None)


def skew_primitive_space(ctx, w):
    """Basis of {h : D(h) = h (x) g^w + 1 (x) h} as Elements.

    Only the columns g^l, plus x and y when w = 1, can carry a solution.
    T(h) = D(h) - h (x) g^w - 1 (x) h preserves the grading deg y = (1, 0),
    deg x = (0, 1), deg g = (0, 0); a block (r, s) != (0, 0) can only
    contribute y^r x^s with r + s = w mod n; and for r + s >= 2, T of that
    column has a term in bidegree (r, s-1) (x) (0, 1), or (r-1, s) (x)
    (1, 0), that nothing cancels (README, "Why the skew-primitive solve
    needs only n + 2 columns").  Every other column is thus a pivot column
    of the full n^3-column system, and the basis is the one the full solve
    returns, in the same (r, s, l) order.
    """
    n = ctx.n
    if not 0 <= w < n:
        raise KernelError(f"skew parameter w={w} outside [0, {n})")
    monos = [Monomial(0, 0, l) for l in range(n)]
    if w == 1:
        monos += [Monomial(0, 1, 0), Monomial(1, 0, 0)]
    one_m = Monomial(0, 0, 0)
    gw = Monomial(0, 0, w)
    rows_by_key = {}
    for col, b in enumerate(monos):
        image = delta(Element(ctx, {b: ctx.one}))
        # Subtract as two tensors: the keys coincide when b = 1 and w = 0.
        image = image - TensorElement(ctx, {(b, gw): ctx.one})
        image = image - TensorElement(ctx, {(one_m, b): ctx.one})
        for pair, c in image.terms.items():
            rows_by_key.setdefault(pair, {})[col] = c
    rows = [rows_by_key[k] for k in sorted(rows_by_key)]
    vectors = _nullspace_from_rows(rows, len(monos), ctx.one)
    out = []
    for vec in vectors:
        out.append(Element(ctx, {m: c for m, c in zip(monos, vec) if c}))
    return out


def is_grouplike(e):
    """Whether D(e) = e (x) e and eps(e) = 1."""
    if counit(e) != 1:
        return False
    return delta(e) == tensor_of(e, e)
