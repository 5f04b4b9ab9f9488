"""Expression grammar, evaluation, and the printing round trip."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from radford.algebra import Element, Monomial, generators
from radford.errors import ExprSyntaxError, KernelError
from radford.parser import (
    MAX_EXPR_COORDS,
    MAX_EXPR_DEPTH,
    _expansion_bound,
    format_element,
    format_scalar,
    parse,
    parse_element,
    parse_scalar,
)
from radford.scalars import MAX_INPUT_DIGITS, make_context

CTX3 = make_context(3)


class TestGrammar:
    def test_two_routes_to_xg_collapse(self):
        e = parse_element("x*g + w*g*x", CTX3)
        assert e == Element.monomial(CTX3, 0, 1, 1, CTX3.from_int(2))

    def test_square_of_one_minus_g_at_n2(self):
        ctx = make_context(2)
        assert parse_element("(1-g)^2", ctx) == parse_element("2 - 2*g", ctx)

    def test_double_star_is_an_error_at_column_three(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x**g")
        assert err.value.column == 3 and err.value.line == 1

    def test_juxtaposition_is_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("g x")

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(x + y")

    def test_dangling_operator(self):
        with pytest.raises(ExprSyntaxError):
            parse("x +")

    def test_zero_denominator(self):
        with pytest.raises(ExprSyntaxError):
            parse("1/0")

    def test_unknown_character_with_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x + q")
        assert err.value.column == 5

    def test_nilpotent_power_evaluates_to_zero(self):
        assert parse_element("x^3", CTX3).is_zero
        assert parse_element("x^99", CTX3).is_zero

    def test_exponent_must_be_integer(self):
        with pytest.raises(ExprSyntaxError):
            parse("x^y")

    def test_unary_minus_at_term_heads(self):
        ctx = CTX3
        g, x, y = generators(ctx)
        assert parse_element("-x + -y", ctx) == -(x + y)
        assert parse_element("x - -y", ctx) == x + y

    def test_rational_literals(self):
        e = parse_element("2/3", CTX3)
        assert e == Element.from_scalar(CTX3, CTX3.from_fraction(Fraction(2, 3)))

    def test_named_scalars(self):
        assert parse_element("i*i", CTX3) \
            == Element.from_scalar(CTX3, CTX3.from_int(-1))
        assert parse_element("w^3", CTX3) == Element.one(CTX3)
        assert parse_element("z^12", CTX3) == Element.one(CTX3)

    def test_precedence_power_before_product(self):
        assert parse_element("2*g^2", CTX3) \
            == Element.monomial(CTX3, 0, 0, 2, CTX3.from_int(2))

    def test_scalar_extraction(self):
        assert parse_scalar("w^2", CTX3) == CTX3.omega(2)
        with pytest.raises(ExprSyntaxError):
            parse_scalar("x", CTX3)


def random_element(ctx, rng, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        mono = Monomial(
            rng.randrange(ctx.n), rng.randrange(ctx.n), rng.randrange(ctx.n)
        )
        coords = [
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
            for _ in range(ctx.degree)
        ]
        c = ctx.from_coords(coords)
        if c:
            terms[mono] = c
    return Element(ctx, terms)


class TestFormatting:
    def test_zero_prints_as_zero(self):
        assert format_element(Element.zero(CTX3)) == "0"
        assert parse_element("0", CTX3).is_zero

    def test_unit_coefficient_suppressed(self):
        e = Element.monomial(CTX3, 1, 0, 2)
        assert format_element(e) == "y*g^2"

    def test_scalar_rendering_parses_back(self):
        w = CTX3.omega()
        s = format_scalar(w)
        assert parse_element(f"({s})", CTX3) == Element.from_scalar(CTX3, w)

    def test_terms_sorted_lexicographically(self):
        e = Element(CTX3, {
            Monomial(2, 0, 0): CTX3.one,
            Monomial(0, 0, 1): CTX3.one,
            Monomial(0, 1, 0): CTX3.one,
        })
        text = format_element(e)
        assert text == "g + x + y^2"

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_seeded_round_trip(self, n):
        ctx = make_context(n)
        rng = random.Random(1000 + n)
        for _ in range(60):
            e = random_element(ctx, rng)
            assert parse_element(format_element(e), ctx) == e

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_property_round_trip(self, data):
        ctx = CTX3
        n_terms = data.draw(st.integers(0, 3))
        terms = {}
        for _ in range(n_terms):
            mono = Monomial(
                data.draw(st.integers(0, 2)),
                data.draw(st.integers(0, 2)),
                data.draw(st.integers(0, 2)),
            )
            coords = data.draw(
                st.lists(
                    st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    min_size=ctx.degree,
                    max_size=ctx.degree,
                )
            )
            c = ctx.from_coords(coords)
            if c:
                terms[mono] = c
        e = Element(ctx, terms)
        assert parse_element(format_element(e), ctx) == e


class TestInputBudget:
    @pytest.mark.parametrize("text", [
        "2^1000", "(1+z)^500", "1" * MAX_INPUT_DIGITS, "g^1000000001",
        "(" * MAX_EXPR_DEPTH + "x" + ")" * MAX_EXPR_DEPTH,
    ])
    def test_within_budget(self, text):
        parse(text)

    @pytest.mark.parametrize("text", [
        "2^1001", "(1+z)^501", "1" * (MAX_INPUT_DIGITS + 1),
        "x^" + "9" * (MAX_INPUT_DIGITS + 1), "(g)^1001",
        "(" * (MAX_EXPR_DEPTH + 1) + "x" + ")" * (MAX_EXPR_DEPTH + 1),
    ])
    def test_over_budget(self, text):
        with pytest.raises(KernelError):
            parse(text)

    def test_powers_of_atoms_stay_small(self):
        assert parse_element("g^1000000001", CTX3) \
            == Element.monomial(CTX3, 0, 0, 1000000001 % 3)

    # The largest powers admitted at n = 255 (m = 1020, phi(m) = 256) and
    # the next ones up; the bound counts the term pairs square-and-multiply
    # takes, phi(m) coordinates each.
    @pytest.mark.parametrize("text, admitted", [
        ("(x+y)^7", True), ("(x+y)^8", False),
        ("(x+y+g)^4", True), ("(x+y+g)^5", False),
    ])
    def test_expansion_budget_at_the_cap(self, text, admitted):
        ctx = make_context(255)
        if admitted:
            assert parse_element(text, ctx).terms
        else:
            with pytest.raises(KernelError, match=f"above the limit {MAX_EXPR_COORDS}"):
                parse_element(text, ctx)

    def test_expansion_bound_counts_terms_and_exponents(self):
        # (terms, r, s, l): a scalar is one term however it is written;
        # (x+y)^k has at most 2^k terms and at most (r+1)(s+1), and y^n = 0
        # caps each exponent at n - 1.
        def bound(text, n):
            return _expansion_bound(parse(text), n)[0]

        assert bound("(1+z+z^2)^9", 3) == (1, 0, 0, 0)
        assert bound("(x+y)^2", 5) == (4, 2, 2, 0)
        assert bound("(x+y)^4", 5) == (16, 4, 4, 0)
        assert bound("(x+y)^8", 5) == (25, 4, 4, 0)
        assert bound("y^7*g*x", 3) == (1, 2, 1, 1)
