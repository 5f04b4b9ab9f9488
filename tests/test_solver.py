"""Nullspaces over the field and over Q; structural solution spaces.

The elimination and the conjugate-linear systems are test oracles
(``tests/oracles.py``); ``TestRationalize`` keeps them honest.  The
skew-primitive spaces, the group-like predicate and the antipode order
are closed forms, compared here with the elimination on all n^3 columns,
with D(e) = e (x) e expanded in full, and with S applied until it
returns to the identity.
"""

import random
from fractions import Fraction

import pytest

from oracles import ConjTerm, ConjugateLinearSystem, FieldMatrix, basis, \
    field_nullspace, generators, grouplike_oracle, rational_nullspace, rationalize, \
    skew_primitive_oracle, substitute
from radford import coalgebra, solver
from radford.algebra import Element, Monomial
from radford.coalgebra import antipode, antipode_order, delta, tensor_of
from radford.errors import KernelError
from radford.scalars import make_context
from radford.solver import is_grouplike, skew_primitive_space


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_full_basis_oracle(self, n):
        # The closed form returns the same basis, in the same order and
        # with the same signs, as the elimination on all n^3 columns.
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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_oracle_on_random_elements(self, n):
        ctx = make_context(n)
        rng = random.Random(n)
        monos = basis(ctx)
        pool = [ctx.one, ctx.one, -ctx.one, ctx.zeta(1), ctx.from_int(2)]
        for _ in range(60):
            k = rng.choice([1, 1, 2, 3])
            if rng.random() < 0.5:
                picks = [Monomial(0, 0, rng.randrange(n)) for _ in range(k)]
            else:
                picks = rng.sample(monos, k)
            e = Element.zero(ctx)
            for b in picks:
                e = e + Element(ctx, {b: rng.choice(pool)})
            assert is_grouplike(e) == grouplike_oracle(e), e

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_scaled_group_powers_match_oracle(self, n):
        ctx = make_context(n)
        for c in (ctx.one, -ctx.one, ctx.zeta(1), ctx.from_int(2)):
            for l in range(n):
                e = Element.monomial(ctx, 0, 0, l, c)
                assert is_grouplike(e) == grouplike_oracle(e) == (c == 1), (c, l)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_other_basis_monomials_match_oracle(self, n):
        ctx = make_context(n)
        for b in basis(ctx):
            if b.r or b.s:
                e = Element(ctx, {b: ctx.one})
                assert is_grouplike(e) is grouplike_oracle(e) is False, b


def _broken_delta(e):
    """A coproduct off by e (x) e, which no nonzero element satisfies."""
    return delta(e) + tensor_of(e, e)


def _x_scaled_antipode(e):
    """S after the automorphism x -> 2x: antimultiplicative, and
    S^2(x) = 4 w^-1 x, not a root of unity times x."""
    ctx = e.ctx
    return antipode(Element(ctx, {b: c * ctx.from_int(2 ** b.s)
                                  for b, c in e.terms.items()}))


class TestClosedForms:
    """No elimination, no coproduct of a large input, no antipode loop;
    each answer re-verified in the kernel."""

    def test_no_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the elimination was reached")

        expanded = []
        applied = []
        monkeypatch.setattr(solver, "_nullspace_from_rows", refuse)
        monkeypatch.setattr(solver, "delta",
                            lambda e: expanded.append(e) or delta(e))
        monkeypatch.setattr(coalgebra, "antipode",
                            lambda e: applied.append(e) or antipode(e))
        applications = set()
        for n in range(2, 7):
            ctx = make_context(n)
            g, x, y = generators(ctx)
            for w in range(n):
                assert len(skew_primitive_space(ctx, w)) == (w > 0) + 2 * (w == 1)
            expanded.clear()
            for e in (g ** (n - 1), g + x, x * y, Element.one(ctx) + y ** (n - 1)):
                is_grouplike(e)
            assert all(len(e.terms) == 1 and not (b.r or b.s)
                       for e in expanded for b in e.terms), expanded
            applied.clear()
            assert antipode_order(ctx) == 2 * n
            applications.add(len(applied))
        # The number of antipode applications does not grow with n.
        assert len(applications) == 1, applications

    def test_skew_vectors_are_verified(self, monkeypatch):
        monkeypatch.setattr(solver, "delta", _broken_delta)
        ctx = make_context(3)
        assert skew_primitive_space(ctx, 0) == []
        for w in (1, 2):
            with pytest.raises(KernelError, match="skew-primitive"):
                skew_primitive_space(ctx, w)

    def test_grouplike_verdict_is_verified(self, monkeypatch):
        monkeypatch.setattr(solver, "delta", _broken_delta)
        ctx = make_context(3)
        assert not any(is_grouplike(Element.monomial(ctx, 0, 0, l))
                       for l in range(3))

    def test_antipode_order_is_verified(self, monkeypatch):
        monkeypatch.setattr(coalgebra, "antipode", _x_scaled_antipode)
        with pytest.raises(KernelError, match="root of unity"):
            antipode_order(make_context(4))


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
