"""Exact linear algebra: nullspaces over Q(zeta_m) and over Q.

Three layers:

* one sparse Gauss-Jordan elimination with deterministic pivoting, run
  over the cyclotomic field or over Q.  Over the field it solves the
  operator h -> D(h) - h (x) g^w - 1 (x) h on the at most 2n basis
  monomials a skew-primitive can use (g^l, and y^r x^s with
  r + s = w mod n; see ``skew_primitive_space``), which gives the
  skew-primitive spaces exactly;
* a group-likeness predicate D(e) = e (x) e, eps(e) = 1;
* a Q-linearization for conjugate-linear systems: conjugation is not
  field-linear, so each scalar unknown splits into phi(m) rational
  unknowns and conjugation becomes an exact rational matrix, after which
  the same elimination runs over Q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import Element, Monomial, basis
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


# The rational systems call the same elimination under their own name, so
# per-layer traces (perfbench/tracing.py) time them apart from field ones.
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


def _sparse_rows(dense_rows):
    return [{j: v for j, v in enumerate(r) if v} for r in dense_rows]


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
    """Basis of the right nullspace of a FieldMatrix, exactly."""
    return _nullspace_from_rows(
        _sparse_rows(matrix.rows), matrix.shape[1], matrix.ctx.one
    )


def skew_primitive_space(ctx, w):
    """Basis of {h : D(h) = h (x) g^w + 1 (x) h} as Elements.

    Grade H_n by deg y = (1, 0), deg x = (0, 1), deg g = (0, 0).  The
    operator T(h) = D(h) - h (x) g^w - 1 (x) h maps each block H_(r,s)
    into the bidegree-(r, s) part of H (x) H, so its kernel is the sum of
    the per-block kernels.  For
    (r, s) != (0, 0) and h = sum_l c_l y^r x^s g^l, the H_(r,s) (x) H_(0,0)
    part of T(h) is sum_l c_l y^r x^s g^l (x) (g^(l+r+s) - g^w) and the
    H_(0,0) (x) H_(r,s) part is sum_l c_l (g^l - 1) (x) y^r x^s g^l, so
    c_l = 0 unless l = 0 and r + s = w mod n.  Only the columns g^l and
    y^r x^s with r + s = w mod n, at most 2n of them, can carry a
    solution.  A dependency among columns is a kernel vector, so every
    other column is a pivot column of the full n^3-column system, and
    dropping them changes neither the free columns nor the reduced
    echelon form: the basis is the one the full solve would return, in
    the same (r, s, l) order.
    """
    n = ctx.n
    if not 0 <= w < n:
        raise KernelError(f"skew parameter w={w} outside [0, {n})")
    monos = [
        b for b in basis(ctx)
        if (b.r, b.s) == (0, 0) or (b.l == 0 and (b.r + b.s) % n == w)
    ]
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
    ncols = rsystem.num_vars * d
    out = []
    rows = _sparse_rows(rsystem.matrix)
    for vec in _rational_kernel(rows, ncols, Fraction(1)):
        out.append(
            [ctx.from_coords(vec[v * d:(v + 1) * d]) for v in range(rsystem.num_vars)]
        )
    return out


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
