"""Field arithmetic in Q(zeta_m): exactness, conjugation, roots."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, Symbol, cyclotomic_poly

from radford.errors import ContextMismatchError, KernelError
from radford.scalars import MAX_CONDUCTOR, FieldContext, _cyclotomic_poly, \
    make_context, unify_contexts

from oracles import cyclotomic_division_oracle


def small_fractions():
    return st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )


def scalars(ctx):
    return st.lists(
        small_fractions(), min_size=ctx.degree, max_size=ctx.degree
    ).map(ctx.from_coords)


CTX3 = make_context(3)
CTX5 = make_context(5)


class TestContext:
    def test_default_conductors(self):
        assert make_context(2).m == 4
        assert make_context(3).m == 12
        assert make_context(4).m == 4
        assert make_context(5).m == 20
        assert make_context(6).m == 12

    def test_phi_4_by_division(self):
        assert make_context(2).phi_m == (1, 0, 1)

    def test_phi_12_by_division(self):
        assert make_context(3).phi_m == (1, 0, -1, 0, 1)

    def test_phi_4_degree(self):
        assert make_context(4).degree == 2

    def test_phi_matches_sympy(self):
        xsym = Symbol("x")
        for m in (4, 8, 12, 16, 20, 24, 36, 40, 48):
            ctx = make_context(2, m) if m % 2 == 0 else make_context(m, m)
            expected = Poly(cyclotomic_poly(m, xsym), xsym).all_coeffs()[::-1]
            assert list(ctx.phi_m) == [int(c) for c in expected]

    def test_phi_matches_division_oracle_up_to_the_cap(self):
        for m in range(1, MAX_CONDUCTOR + 1):
            assert _cyclotomic_poly(m) == cyclotomic_division_oracle(m), m

    def test_zeta_log_builds_its_table_on_first_use(self):
        ctx = FieldContext(3, 12)  # not interned, so no other test touched it
        assert ctx._zeta_index is None
        assert [ctx.zeta_log(ctx.zeta(k)) for k in range(12)] == list(range(12))
        assert len(ctx._zeta_index) == 12
        assert ctx.zeta_log(ctx.from_int(2)) is None
        assert ctx.zeta_log(ctx.one + ctx.i()) is None

    def test_rejects_small_n(self):
        with pytest.raises(KernelError):
            make_context(1)

    def test_rejects_incompatible_conductor(self):
        with pytest.raises(KernelError):
            make_context(4, 10)
        with pytest.raises(KernelError):
            make_context(3, 8)

    def test_explicit_conductor_multiple(self):
        ctx = make_context(3, 24)
        assert ctx.omega() ** 3 == 1
        assert ctx.i() * ctx.i() == -1

    def test_conductor_budget(self):
        assert make_context(4, MAX_CONDUCTOR).m == MAX_CONDUCTOR
        with pytest.raises(KernelError):
            make_context(4, 2 * MAX_CONDUCTOR)
        with pytest.raises(KernelError):
            make_context(MAX_CONDUCTOR + 1)

    def test_contexts_interned(self):
        assert make_context(3) is make_context(3, 12)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_primitivity(self, n):
        ctx = make_context(n)
        m = ctx.m
        assert ctx.zeta(m) == 1
        for d in range(1, m):
            if m % d == 0:
                assert ctx.zeta(d) != 1


class TestArithmetic:
    def test_omega_has_order_n(self):
        for n in range(2, 7):
            ctx = make_context(n)
            w = ctx.omega()
            assert w * ctx.omega(n - 1) == 1
            assert w ** n == 1
            for k in range(1, n):
                assert w ** k != 1

    def test_i_squares_to_minus_one(self):
        for n in (2, 3, 5):
            ctx = make_context(n)
            assert ctx.i() * ctx.i() == -1

    def test_inverse_one_plus_i(self):
        ctx = make_context(2)
        a = ctx.one + ctx.i()
        inv = a.inverse()
        assert a * inv == 1
        assert inv == (ctx.one - ctx.i()) * ctx.from_fraction(Fraction(1, 2))

    def test_inverse_of_zero_reported(self):
        with pytest.raises(ZeroDivisionError):
            CTX3.zero.inverse()

    def test_division(self):
        a = CTX3.from_fraction(Fraction(3, 5))
        assert a / a == 1

    def test_pow_negative(self):
        w = CTX3.omega()
        assert w ** -1 == w ** 2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=scalars(CTX3), b=scalars(CTX3), c=scalars(CTX3))
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a:
            assert a * a.inverse() == 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=scalars(CTX5), b=scalars(CTX5))
    def test_conjugation_is_involutive_automorphism(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert a.conjugate().conjugate() == a

    def test_context_mismatch_reported(self):
        with pytest.raises(ContextMismatchError):
            CTX3.one + CTX5.one


class TestConjugation:
    def test_conj_i(self):
        ctx = make_context(2)
        assert ctx.i().conjugate() == -ctx.i()

    def test_conj_omega(self):
        for n in (3, 4, 5, 6):
            ctx = make_context(n)
            assert ctx.omega().conjugate() == ctx.omega(n - 1)

    def test_rationals_are_real(self):
        a = CTX3.from_fraction(Fraction(3, 5))
        assert a.conjugate() == a


class TestNormOne:
    def test_omega_is_norm_one(self):
        assert CTX3.omega().is_norm_one()

    def test_two_is_not(self):
        assert not CTX3.from_int(2).is_norm_one()

    def test_gaussian_quotient(self):
        ctx = make_context(2)
        q = (ctx.one + ctx.i()) * (ctx.one - ctx.i()).inverse()
        assert q.is_norm_one()
        assert q == ctx.i()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_all_roots_of_unity(self, n):
        ctx = make_context(n)
        for k in range(ctx.m):
            assert ctx.zeta(k).is_norm_one()


class TestEmbedding:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a=scalars(CTX3), b=scalars(CTX3))
    def test_embedding_commutes_with_operations(self, a, b):
        big = make_context(3, 24)
        assert (a + b).embed(big) == a.embed(big) + b.embed(big)
        assert (a * b).embed(big) == a.embed(big) * b.embed(big)
        assert a.conjugate().embed(big) == a.embed(big).conjugate()

    def test_embedding_preserves_zeta(self):
        big = make_context(3, 24)
        assert CTX3.zeta(1).embed(big) == big.zeta(2)

    def test_embed_rejects_non_multiple(self):
        with pytest.raises(ContextMismatchError):
            make_context(2, 8).one.embed(make_context(2, 4))

    def test_unify(self):
        a = make_context(2, 4)
        b = make_context(2, 8)
        assert unify_contexts(a, b) is b
        with pytest.raises(ContextMismatchError):
            unify_contexts(make_context(2), make_context(3))


class TestCoords:
    def test_coords_exposed_as_fractions(self):
        a = CTX3.from_coords([Fraction(1, 2), 0, Fraction(-3, 4), 1])
        assert a.coords == (Fraction(1, 2), 0, Fraction(-3, 4), 1)

    def test_zero_has_all_zero_coords(self):
        z = CTX3.omega() - CTX3.omega()
        assert z.is_zero and not any(z.coords)

    def test_coords_length_checked(self):
        with pytest.raises(KernelError):
            CTX3.from_coords([1, 2])
