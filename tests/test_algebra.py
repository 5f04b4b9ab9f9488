"""Products in H_n: closed formula against the rewriting oracle."""

import random

import pytest

from oracles import basis, generators, word_of_monomial
from radford.algebra import (
    Element,
    FreeWord,
    Monomial,
    rewrite_word,
)
from radford.errors import KernelError
from radford.scalars import make_context


@pytest.fixture(params=[2, 3, 4], ids=lambda n: f"n{n}")
def ctx(request):
    return make_context(request.param)


def _mul(ctx, a, b):
    """The kernel's product of two basis monomials."""
    return Element(ctx, {a: ctx.one}) * Element(ctx, {b: ctx.one})


class TestMonomialMul:
    def test_xy_is_omega_yx(self, ctx):
        g, x, y = generators(ctx)
        assert x * y == (y * x).scale(ctx.omega())

    def test_gx_twists_by_omega_inverse(self, ctx):
        g, x, y = generators(ctx)
        assert g * x == (x * g).scale(ctx.omega(-1))

    def test_x_power_vanishes(self, ctx):
        n = ctx.n
        a = Monomial(0, n - 1, 0)
        b = Monomial(0, 1, 0)
        assert _mul(ctx, a, b).is_zero

    def test_g_power_wraps(self, ctx):
        n = ctx.n
        assert _mul(ctx, Monomial(0, 0, n - 1), Monomial(0, 0, 1)) \
            == Element.one(ctx)

    def test_closed_formula_matches_rewriting_oracle(self, ctx):
        for a in basis(ctx):
            wa = word_of_monomial(a)
            for b in basis(ctx):
                lhs = _mul(ctx, a, b)
                rhs = rewrite_word(ctx, wa + word_of_monomial(b))
                assert lhs == rhs, (a, b)


class TestElementOps:
    def test_one_minus_g_times_one_plus_g(self):
        ctx = make_context(3)
        g, x, y = generators(ctx)
        one = Element.one(ctx)
        assert (one - g) * (one + g) == one - g * g

    def test_vanishes_at_n2(self):
        ctx = make_context(2)
        g, x, y = generators(ctx)
        one = Element.one(ctx)
        assert ((one - g) * (one + g)).is_zero

    def test_x_plus_y_squares_to_zero_at_n2(self):
        ctx = make_context(2)
        g, x, y = generators(ctx)
        assert ((x + y) * (x + y)).is_zero

    def test_scale_by_zero_empties_the_term_map(self, ctx):
        g, x, y = generators(ctx)
        assert x.scale(ctx.zero).terms == {}

    def test_cancellation_prunes_terms(self, ctx):
        g, x, y = generators(ctx)
        e = x + y.scale(ctx.omega())
        assert (e - e).terms == {}
        # (1 - g)(1 + g + ... + g^(n-1)) = 1 - g^n = 0: every term cancels.
        powers = Element.one(ctx)
        for k in range(1, ctx.n):
            powers = powers + g ** k
        assert ((Element.one(ctx) - g) * powers).terms == {}

    def test_unit_law(self, ctx):
        one = Element.one(ctx)
        for b in basis(ctx):
            eb = Element(ctx, {b: ctx.one})
            assert one * eb == eb
            assert eb * one == eb

    def test_associativity_exhaustive(self, ctx):
        monos = basis(ctx)
        if ctx.n == 4:
            rng = random.Random(4)
            triples = [
                (rng.choice(monos), rng.choice(monos), rng.choice(monos))
                for _ in range(4000)
            ]
        else:
            triples = [
                (a, b, c) for a in monos for b in monos for c in monos
            ]
        for a, b, c in triples:
            ea, eb, ec = (Element(ctx, {t: ctx.one}) for t in (a, b, c))
            assert (ea * eb) * ec == ea * (eb * ec)

    def test_associativity_sampled_large_n(self):
        for n in (5, 6):
            ctx = make_context(n)
            monos = basis(ctx)
            rng = random.Random(n)
            for _ in range(1500):
                a, b, c = (rng.choice(monos) for _ in range(3))
                ea, eb, ec = (Element(ctx, {t: ctx.one}) for t in (a, b, c))
                assert (ea * eb) * ec == ea * (eb * ec)

    def test_defining_relations_on_the_canonical_product(self):
        for n in range(2, 7):
            ctx = make_context(n)
            g, x, y = generators(ctx)
            w = ctx.omega()
            assert x * g == (g * x).scale(w)
            assert g * y == (y * g).scale(w)
            assert x * y == (y * x).scale(w)

    def test_element_pow(self, ctx):
        g, x, y = generators(ctx)
        one = Element.one(ctx)
        assert g ** ctx.n == one
        assert (one - g) ** 0 == one
        if ctx.n >= 3:
            assert x ** 2 == Element.monomial(ctx, 0, 2, 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pow_is_the_repeated_product(self, n):
        ctx = make_context(n)
        g, x, y = generators(ctx)
        # A unit, a nilpotent, and a mix with a scalar and a g-part.
        for e in (g, x + y, Element.one(ctx) + x.scale(ctx.i()) + g * y):
            expected = Element.one(ctx)
            for k in range(2 * n + 1):
                assert e ** k == expected, (n, k)
                expected = expected * e

    def test_monomial_bounds_checked(self, ctx):
        with pytest.raises(KernelError):
            Element.monomial(ctx, ctx.n, 0, 0)


class TestRewriting:
    def test_gxy_normalizes_with_one_net_twist(self, ctx):
        # GXY -> w^-1 XGY -> XYG -> w YXG
        expected = Element.monomial(ctx, 1, 1, 1, ctx.omega())
        assert rewrite_word(ctx, "GXY") == expected

    def test_canonical_word_untouched(self, ctx):
        assert rewrite_word(ctx, "XG") == Element.monomial(ctx, 0, 1, 1)

    def test_x_to_the_n_rewrites_to_zero(self, ctx):
        assert rewrite_word(ctx, "X" * ctx.n).is_zero

    def test_carries_coefficient(self, ctx):
        w = FreeWord("GY", coefficient=ctx.from_int(3))
        assert rewrite_word(ctx, w) \
            == Element.monomial(ctx, 1, 0, 1, ctx.omega() * ctx.from_int(3))

    def test_alphabet_enforced(self):
        with pytest.raises(KernelError):
            FreeWord("GXQ")

    def test_basis_words_are_fixed_points(self, ctx):
        for b in basis(ctx):
            assert rewrite_word(ctx, word_of_monomial(b)) \
                == Element(ctx, {b: ctx.one})

    def test_empty_word_is_one(self, ctx):
        assert rewrite_word(ctx, "") == Element.one(ctx)


class TestEmbed:
    def test_element_embedding_respects_products(self):
        ctx = make_context(3)
        big = make_context(3, 24)
        g, x, y = generators(ctx)
        e1 = x * g + y.scale(ctx.omega())
        e2 = y * x
        assert (e1 * e2).embed(big) == e1.embed(big) * e2.embed(big)
