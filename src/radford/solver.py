"""Skew-primitives and group-likes of H_n in closed form, each re-verified.

The (1, g^w)-skew-primitives are k(g^w - 1), plus kx + ky at w = 1, and
the group-likes are the g^l (README, "Why skew-primitives, group-likes
and the antipode order need no search").  The sparse Gauss-Jordan
elimination below has no kernel caller; ``tests/oracles.py`` solves with it.
"""

from __future__ import annotations

from .algebra import Element
from .coalgebra import delta, tensor_of
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

    It is {0} at w = 0 and k(g^w - 1) otherwise, plus kx + ky at w = 1
    (Taft-Wilson), in the order and with the signs of the reduced echelon
    solve on all n^3 columns.  Each vector is checked before it is returned.
    """
    n = ctx.n
    if not 0 <= w < n:
        raise KernelError(f"skew parameter w={w} outside [0, {n})")
    if w == 0:
        return []
    one = Element.one(ctx)
    gw = Element.monomial(ctx, 0, 0, w)
    out = [gw - one]
    if w == 1:
        out += [Element.monomial(ctx, 0, 1, 0), Element.monomial(ctx, 1, 0, 0)]
    for h in out:
        if delta(h) != tensor_of(h, gw) + tensor_of(one, h):
            raise KernelError(f"{h!r} is not (1, g^{w})-skew-primitive")
    return out


def is_grouplike(e):
    """Whether D(e) = e (x) e and eps(e) = 1.

    G(H_n) = <g> (Montgomery, Lemma 5.5.1), so e is group-like exactly
    when it is one term g^l with coefficient 1.  D(e) = e (x) e is then
    re-checked on that term; no other input has its coproduct expanded.
    """
    if len(e.terms) != 1:
        return False
    [(mono, c)] = e.terms.items()
    if mono.r or mono.s or c != 1:
        return False
    return delta(e) == tensor_of(e, e)
