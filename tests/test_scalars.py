"""Field arithmetic in Q(zeta_m): exactness, conjugation, roots."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, Symbol, cyclotomic_poly

from radford.errors import ContextMismatchError, KernelError
from radford.scalars import MAX_CONDUCTOR, FieldContext, \
    _cyclotomic_poly, make_context

from oracles import cyclotomic_division_oracle, dense_scalar, power_oracle


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

    def test_zeta_log_reads_the_rows(self):
        ctx = CTX3
        assert [ctx.zeta_log(ctx.zeta(k)) for k in range(12)] == list(range(12))
        assert ctx.zeta_log(ctx.from_int(2)) is None
        assert ctx.zeta_log(ctx.one + ctx.i()) is None

    # The rows, compared whole, against a scan of the m powers for the
    # first equal one, up to the largest conductors.
    @pytest.mark.parametrize("n, m", [(3, 12), (5, 20), (3, 420), (3, 1020), (4, 1024)])
    def test_zeta_log_matches_a_scan(self, n, m):
        ctx = make_context(n, m)
        powers = [ctx.zeta(k) for k in range(m)]
        nums = [z.num for z in powers]
        assert [ctx.zeta_log(z) for z in powers] == [nums.index(z.num) for z in powers]
        half = ctx.from_fraction(Fraction(1, 2))
        for a in (ctx.from_int(2), ctx.one + ctx.zeta(), ctx.zeta() * half):
            assert ctx.zeta_log(a) is None

    # The table of zeta^k, read through zeta, the product's fold, conjugate
    # and embed, at every k < m, up to the largest conductors.
    @pytest.mark.parametrize("n, m", [(3, 12), (5, 20), (3, 132), (3, 1020), (4, 1024)])
    def test_zeta_powers_match_long_division(self, n, m):
        ctx = make_context(n, m)
        # zeta_log compares rows whole: each is sorted by j with no zero value.
        assert all(v for row in ctx._rows for _, v in row)
        assert all(j1 < j2 for row in ctx._rows for (j1, _), (j2, _) in zip(row, row[1:]))
        for k, row in enumerate(power_oracle(m)):
            z = ctx.zeta(k)
            assert (z.num, z.den) == (row, 1)
            assert z.conjugate() == ctx.zeta(-k)
        # Products of two powers below phi(m) fold X^(a+b) back to the basis.
        d = ctx.degree
        assert all(ctx.zeta(a) * ctx.zeta(b) == ctx.zeta(a + b)
                   for a in (0, 1, d // 2, d - 1) for b in (d // 2 + 1, d - 1))

    def test_table_at_1024_holds_one_entry_per_power(self):
        # Phi_1024 = X^512 + 1, so each zeta^k is plus or minus one basis vector.
        ctx = make_context(4, 1024)
        assert sum(map(len, ctx._rows)) == 1024

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

    # A rational is inverted as q/p; times zeta it goes through the norm.
    @pytest.mark.parametrize("p, q", [(1, 1), (-1, 1), (4, 1), (-4, 1), (3, 5),
                                      (-3, 5), (1, 6), (-7, 2)])
    def test_rational_inverse_matches_euclid(self, p, q):
        for ctx in (CTX3, make_context(2), make_context(4, 1024)):
            a = ctx.from_fraction(Fraction(p, q))
            z = ctx.zeta()
            assert a.inverse() == (a * z).inverse() * z == ctx.from_fraction(Fraction(q, p))
            assert a.inverse().den > 0

    # Through the norm, a product of phi(m)/2 conjugates: a dense scalar w,
    # the unit u = w / conj(w), and 1 + u, whose coordinates have hundreds of
    # bits at m = 420.
    @pytest.mark.parametrize("m", [132, 420])
    def test_dense_inverse(self, m):
        ctx = make_context(2, m)
        w = dense_scalar(ctx, m)
        u = w * w.conjugate().inverse()
        assert u.is_norm_one()
        for a in (w, u, 1 + u):
            assert a * a.inverse() == 1

    def test_inverse_of_zero_reported(self):
        with pytest.raises(ZeroDivisionError):
            CTX3.zero.inverse()

    def test_division(self):
        a = CTX3.from_fraction(Fraction(3, 5))
        assert a / a == 1

    def test_pow_negative(self):
        w = CTX3.omega()
        assert w ** -1 == w ** 2

    # Square-and-multiply with no product by 1 and no squaring past the top
    # bit: a^k takes (bit length - 1) squarings and (set bits - 1) products.
    @pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (2, 1), (4, 2), (5, 3)])
    def test_pow_products(self, k, products, monkeypatch):
        a = CTX3.from_int(2) + CTX3.zeta()
        want = CTX3.one
        for _ in range(k):
            want = want * a
        calls = []
        mul_nums = FieldContext._mul_nums
        monkeypatch.setattr(FieldContext, "_mul_nums",
                            lambda *args: calls.append(1) or mul_nums(*args))
        got = a ** k
        assert len(calls) == products
        monkeypatch.undo()
        assert got == want
        assert a ** -k * want == 1
        assert a ** -k == a.inverse() ** k

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

    def test_long_coordinate_refused_only_when_printed(self):
        # Products are not limited: two factors of 2200 digits give 4400,
        # past Python's 4300-digit int -> str limit, which only printing
        # refuses.  4200 digits still print.
        ok = CTX3.from_int(10 ** 2100)
        assert (ok * ok).coord_texts()[0] == "1" + "0" * 4200
        big = CTX3.from_int(10 ** 2200)
        for a, b in ((big, big), (big.inverse(), big.inverse()),
                     (big * CTX3.i(), -big)):
            assert max(map(abs, (a * b).num)) * (a * b).den == 10 ** 4400
            with pytest.raises(KernelError, match="too many digits to print"):
                (a * b).coord_texts()


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
        big = make_context(3, 1020)
        for k in range(12):
            assert CTX3.zeta(k).embed(big) == big.zeta(85 * k)
            assert (CTX3.zeta(k) / 2).embed(big) == big.zeta(85 * k) / 2

    def test_embed_rejects_non_multiple(self):
        with pytest.raises(ContextMismatchError):
            make_context(2, 8).one.embed(make_context(2, 4))


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
