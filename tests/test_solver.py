"""Nullspaces over the field and over Q; structural solution spaces.

The conjugate-linear systems are test oracles (``tests/oracles.py``);
``TestRationalize`` keeps them honest.
"""

import random
from fractions import Fraction

import pytest

from oracles import ConjTerm, ConjugateLinearSystem, rational_nullspace, \
    rationalize, skew_primitive_oracle, substitute
from radford.algebra import Element, Monomial, basis, generators
from radford.coalgebra import delta, tensor_of
from radford.errors import KernelError
from radford.scalars import make_context
from radford.solver import FieldMatrix, field_nullspace, is_grouplike, \
    skew_primitive_space


class TestFieldNullspace:
    def test_identity_has_trivial_kernel(self):
        ctx = make_context(3)
        m = FieldMatrix(ctx, [[ctx.one, ctx.zero], [ctx.zero, ctx.one]])
        assert field_nullspace(m) == []

    def test_zero_matrix_has_full_kernel(self):
        ctx = make_context(3)
        m = FieldMatrix(ctx, [[ctx.zero] * 2, [ctx.zero] * 2])
        vs = field_nullspace(m)
        assert len(vs) == 2

    def test_single_relation(self):
        ctx = make_context(3)
        m = FieldMatrix(ctx, [[ctx.one, ctx.omega()]])
        vs = field_nullspace(m)
        assert len(vs) == 1
        assert vs[0][0] == -ctx.omega() and vs[0][1] == ctx.one

    def test_ragged_rows_rejected(self):
        ctx = make_context(3)
        with pytest.raises(KernelError):
            FieldMatrix(ctx, [[ctx.one], [ctx.one, ctx.zero]])

    def test_kernel_vectors_annihilate(self):
        ctx = make_context(3)
        rng = random.Random(11)
        pool = [ctx.zero, ctx.one, -ctx.one, ctx.omega(), ctx.i(),
                ctx.from_fraction(Fraction(1, 2))]
        for _ in range(25):
            rows = [[rng.choice(pool) for _ in range(4)] for _ in range(3)]
            m = FieldMatrix(ctx, rows)
            for v in field_nullspace(m):
                for row in rows:
                    acc = ctx.zero
                    for c, x in zip(row, v):
                        acc = acc + c * x
                    assert acc.is_zero

    def test_rank_nullity(self):
        ctx = make_context(2)
        rng = random.Random(5)
        pool = [ctx.zero, ctx.one, ctx.i(), -ctx.one]
        for _ in range(20):
            rows = [[rng.choice(pool) for _ in range(5)] for _ in range(3)]
            m = FieldMatrix(ctx, rows)
            kernel = field_nullspace(m)
            image_rank = 5 - len(kernel)
            assert 0 <= image_rank <= 3


class TestSkewPrimitives:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_w1_dimension_three(self, n):
        assert len(skew_primitive_space(make_context(n), 1)) == 3

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_w1_span_is_x_y_one_minus_g(self, n):
        ctx = make_context(n)
        g, x, y = generators(ctx)
        span = [x, y, Element.one(ctx) - g]
        monos = basis(ctx)
        for v in skew_primitive_space(ctx, 1):
            rows = [
                [s.coefficient(*b) for s in span] + [v.coefficient(*b)]
                for b in monos
            ]
            kernel = field_nullspace(FieldMatrix(ctx, rows))
            # solvable iff some kernel vector weights the target column
            assert any(vec[3] for vec in kernel)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_higher_w_is_a_line_through_one_minus_gw(self, n):
        ctx = make_context(n)
        for w in range(2, n):
            vs = skew_primitive_space(ctx, w)
            assert len(vs) == 1
            v = vs[0]
            assert set(v.terms) == {Monomial(0, 0, 0), Monomial(0, 0, w)}
            assert v.terms[Monomial(0, 0, 0)] == -v.terms[Monomial(0, 0, w)]

    def test_w0_yields_nothing(self):
        assert skew_primitive_space(make_context(3), 0) == []

    def test_solutions_satisfy_defining_equation(self):
        for n in (2, 3, 4):
            ctx = make_context(n)
            one = Element.one(ctx)
            for w in range(n):
                gw = Element.monomial(ctx, 0, 0, w)
                for v in skew_primitive_space(ctx, w):
                    assert delta(v) == tensor_of(v, gw) + tensor_of(one, v)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_full_basis_oracle(self, n):
        # The bidegree-restricted columns return the same basis, in the
        # same order, as the elimination on all n^3 columns.
        ctx = make_context(n)
        for w in range(n):
            assert skew_primitive_space(ctx, w) == skew_primitive_oracle(ctx, w), w

    def test_w_range_checked(self):
        with pytest.raises(KernelError):
            skew_primitive_space(make_context(3), 3)


class TestGrouplike:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_group_powers_are_grouplike(self, n):
        ctx = make_context(n)
        for l in range(n):
            assert is_grouplike(Element.monomial(ctx, 0, 0, l))

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_other_basis_monomial_is(self, n):
        ctx = make_context(n)
        for b in basis(ctx):
            if b.r == 0 and b.s == 0:
                continue
            assert not is_grouplike(Element(ctx, {b: ctx.one}))

    def test_samples(self):
        ctx = make_context(3)
        g, x, y = generators(ctx)
        one = Element.one(ctx)
        assert not is_grouplike(one + x)
        assert not is_grouplike(g + y)
        assert not is_grouplike(one - g)
        assert not is_grouplike(Element.zero(ctx))


class TestRationalize:
    def test_real_constraint(self):
        ctx = make_context(2)
        system = ConjugateLinearSystem(ctx, 1)
        system.add_equation(
            [ConjTerm(ctx.one, 0), ConjTerm(-ctx.one, 0, True)]
        )
        sols = rational_nullspace(rationalize(system))
        assert len(sols) == 1
        assert sols[0][0] == 1

    def test_imaginary_constraint(self):
        ctx = make_context(2)
        system = ConjugateLinearSystem(ctx, 1)
        system.add_equation([ConjTerm(ctx.one, 0), ConjTerm(ctx.one, 0, True)])
        sols = rational_nullspace(rationalize(system))
        assert len(sols) == 1
        assert sols[0][0] == ctx.i()

    def test_twisted_constraint_contains_one_plus_i(self):
        # lambda = i * conj(lambda) admits lambda = 1 + i.
        ctx = make_context(2)
        system = ConjugateLinearSystem(ctx, 1)
        system.add_equation(
            [ConjTerm(ctx.one, 0), ConjTerm(-ctx.i(), 0, True)]
        )
        sols = rational_nullspace(rationalize(system))
        assert len(sols) == 1
        v = sols[0][0]
        ratio = (ctx.one + ctx.i()) * v.inverse()
        assert not any(ratio.coords[1:])  # rational multiple

    def test_solutions_substitute_to_zero(self):
        ctx = make_context(3)
        system = ConjugateLinearSystem(ctx, 2)
        system.add_equation(
            [ConjTerm(ctx.omega(), 0), ConjTerm(ctx.one, 1, True)]
        )
        system.add_equation([ConjTerm(ctx.i(), 0, True), ConjTerm(-ctx.one, 1)])
        for sol in rational_nullspace(rationalize(system)):
            assert all(r.is_zero for r in substitute(system, sol))

    def test_agrees_with_field_solver_without_conjugation(self):
        # Differential route: a conjugation-free system solved both ways.
        ctx = make_context(3)
        d = ctx.degree
        rng = random.Random(3)
        pool = [ctx.zero, ctx.one, ctx.omega(), -ctx.one, ctx.i()]
        for _ in range(10):
            rows = [[rng.choice(pool) for _ in range(3)] for _ in range(2)]
            field_kernel = field_nullspace(FieldMatrix(ctx, rows))

            system = ConjugateLinearSystem(ctx, 3)
            for row in rows:
                system.add_equation(
                    [ConjTerm(c, v) for v, c in enumerate(row) if c]
                )
            rational_kernel = rational_nullspace(rationalize(system))
            # Dimensions: Q-dimension is degree * field dimension.
            assert len(rational_kernel) == d * len(field_kernel)
            # Every rational solution satisfies the field system.
            for sol in rational_kernel:
                for row in rows:
                    acc = ctx.zero
                    for c, u in zip(row, sol):
                        acc = acc + c * u
                    assert acc.is_zero

    def test_unknown_index_checked(self):
        ctx = make_context(2)
        system = ConjugateLinearSystem(ctx, 1)
        with pytest.raises(KernelError):
            system.add_equation([ConjTerm(ctx.one, 1)])
