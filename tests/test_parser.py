"""Expression grammar, evaluation, and the printing round trip."""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import generators, metered
from radford.algebra import Element, Monomial
from radford import parser
from radford.errors import ExprSyntaxError, KernelError
from radford.parser import (
    MAX_EXPR_DEPTH,
    Atom,
    Pow,
    evaluate,
    format_element,
    format_scalar,
    parse,
    parse_element,
    parse_scalar,
    parse_scalars,
)
from radford.scalars import MAX_INPUT_DIGITS, FieldContext, make_context

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
        # Digits are ASCII: a superscript, an Arabic-Indic or a fullwidth
        # digit is an unknown character, not a number.
        for text, column in (("x + q", 5), ("x^\u00b2", 3), ("x + \u00b9", 5),
                             ("\u0663*x", 1), ("1\uff11", 2)):
            with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
                parse(text)
            assert err.value.column == column

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
        with pytest.raises(KernelError, match=r"^expression 'x' is not a scalar$") as err:
            parse_scalar("x", CTX3)
        assert not isinstance(err.value, ExprSyntaxError)


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
    # The input checks look at the text alone.  A long exponent is no
    # input of that kind: 2^1001 and (1+z)^501 are a few squarings, well
    # within one call's budget of work.
    @pytest.mark.parametrize("text", [
        "2^1000", "(1+z)^500", "1" * MAX_INPUT_DIGITS, "g^1000000001",
        "(" * MAX_EXPR_DEPTH + "x" + ")" * MAX_EXPR_DEPTH,
        "2^1001", "(1+z)^501", "(g)^1001",
    ])
    def test_within_budget(self, text):
        with metered():
            parse_element(text, CTX3)

    @pytest.mark.parametrize("text", [
        "1" * (MAX_INPUT_DIGITS + 1),
        "x^" + "9" * (MAX_INPUT_DIGITS + 1),
        "(" * (MAX_EXPR_DEPTH + 1) + "x" + ")" * (MAX_EXPR_DEPTH + 1),
    ])
    def test_over_budget(self, text):
        with pytest.raises(KernelError):
            parse(text)

    def test_nested_long_exponents_are_refused(self):
        # 100 nested powers of 1 with 1000-digit exponents parse, and each
        # level takes some 5 000 products of 1 by 1: the work runs past one
        # call's budget long before the last level.
        power = ")^" + "9" * MAX_INPUT_DIGITS
        tree = parse("(" * MAX_EXPR_DEPTH + "1" + power * MAX_EXPR_DEPTH)
        with metered(), pytest.raises(KernelError, match="units of work"):
            evaluate(tree, CTX3)

    def test_powers_of_atoms_stay_small(self):
        assert parse_element("g^1000000001", CTX3) \
            == Element.monomial(CTX3, 0, 0, 1000000001 % 3)

    # Powers at n = 255 (m = 1020, phi(m) = 256) on either side of one
    # call's budget of work.
    @pytest.mark.parametrize("text, admitted", [
        ("(x+y)^7", True), ("(x+y)^8", True), ("(x+y)^9", True),
        ("(x+y)^50", True), ("(x+y)^51", False),
        ("(x+y+g)^4", True), ("(x+y+g)^5", True), ("(x+y+g)^6", True),
        ("(x+y+g)^13", True), ("(x+y+g)^14", False),
    ])
    def test_expansion_budget_at_the_cap(self, text, admitted):
        ctx = make_context(255)
        with metered():
            if admitted:
                assert parse_element(text, ctx).terms
            else:
                with pytest.raises(KernelError, match="units of work"):
                    parse_element(text, ctx)

    def test_grid_values_share_one_budget(self):
        # Each (t+z)^200 at m = 1020 takes 9 products of up to 201
        # coordinates: 12 of them fit one call's budget, and 400 do not.
        ctx = make_context(3, 1020)
        with metered():
            values = parse_scalars([f"({t}+z)^200" for t in range(2, 14)] + ["-i"], ctx)
        assert values[0] == (2 + ctx.zeta()) ** 200 and values[12] == -ctx.i()
        with metered():
            assert parse_scalars([f"z^{k}" for k in range(990, 1020)], ctx) \
                == [ctx.zeta(k) for k in range(990, 1020)]
            assert len(parse_scalars([str(k) for k in range(1000)], ctx)) == 1000
        with metered(), pytest.raises(KernelError, match="units of work"):
            parse_scalars([f"({t}+z)^200" for t in range(2, 402)], ctx)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_powers_of_atoms_take_no_product(self, n, monkeypatch):
        # g^n = 1, x^n = y^n = 0, and the roots i, w, z: each power is the
        # repeated product, built with no product at all.
        ctx = make_context(n)
        want = {}
        for a in "gxyiwz":
            base, acc = parse_element(a, ctx), Element.one(ctx)
            for k in range(2 * n + 2):
                want[a, k] = acc
                acc = acc * base
        monkeypatch.setattr(type(ctx), "_mul_nums", None)
        for (a, k), value in want.items():
            assert evaluate(Pow(Atom(a), k), ctx) == value


@contextmanager
def counted_pairs():
    """[pairs]: the term pairs of the Element products taken inside."""
    count = [0]
    mul = Element.__mul__

    def counting(a, b):
        count[0] += len(a.terms) * len(b.terms)
        return mul(a, b)

    Element.__mul__ = counting
    try:
        yield count
    finally:
        Element.__mul__ = mul


def naive_power(base, k, ctx):
    """base^k as k products, the first by 1."""
    acc = Element.one(ctx)
    for _ in range(k):
        acc = acc * base
    return acc


_ROOTS = {"i": "i", "w": "omega", "z": "zeta"}


@st.composite
def factors(draw, ctx, depth):
    """(text, value) of a literal, an atom or a parenthesised sum, raised
    to a power 0..2n+1 or not."""
    kind = draw(st.sampled_from(("literal", "atom", "sum")[:3 if depth else 2]))
    if kind == "sum":
        text, value = draw(sums(ctx, depth - 1))
        text = f"({text})"
    elif kind == "literal":
        p, q = draw(st.integers(0, 9)), draw(st.integers(1, 4))
        text = f"{p}/{q}"
        value = Element.from_scalar(ctx, ctx.from_fraction(Fraction(p, q)))
    else:
        name = draw(st.sampled_from("gxyiwz"))
        text = name
        if name in _ROOTS:
            value = Element.from_scalar(ctx, getattr(ctx, _ROOTS[name])())
        else:
            value = generators(ctx)["gxy".index(name)]
    if draw(st.booleans()):
        k = draw(st.integers(0, 2 * ctx.n + 1))
        text, value = f"{text}^{k}", naive_power(value, k, ctx)
    return text, value


@st.composite
def sums(draw, ctx, depth):
    """(text, value) of a sum of 1..3 signed terms of 1..3 factors each,
    the value multiplied out naively: one product per factor, from 1."""
    text, value = "", Element.zero(ctx)
    for j in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from("+-")) if j else "+"
        negated = draw(st.booleans())
        term_text, term_value = "-" if negated else "", Element.one(ctx)
        for f in range(draw(st.integers(1, 3))):
            f_text, f_value = draw(factors(ctx, depth))
            term_text += ("*" if f else "") + f_text
            term_value = term_value * f_value
        if negated:
            term_value = -term_value
        text += f" {sign} {term_text}" if j else term_text
        value = value - term_value if sign == "-" else value + term_value
    return text, value


class TestEvaluation:
    # Each scalar product is charged its fixed part, 36 + 3 phi(m) units,
    # and at least one unit per pair of nonzero coordinates it multiplies;
    # the same evaluation is charged the same again.
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("text", [
        "(2+z)^200", "-(1+i)^5*(3-w)^2 + z", "((1+z)^3 - z)^4*(1/2 - w)^0",
        "2*(i - 3/4*z)^13 - w^2*(1+z)^2",
    ])
    def test_budget_charges_the_pairs_taken_on_scalars(self, n, text, monkeypatch):
        ctx = make_context(n)
        pairs, mul_nums = [], FieldContext._mul_nums

        def counting(self, n1, d1, n2, d2):
            pairs.append((len(n1) - n1.count(0)) * (len(n2) - n2.count(0)))
            return mul_nums(self, n1, d1, n2, d2)

        monkeypatch.setattr(FieldContext, "_mul_nums", counting)
        with metered() as meter:
            parse_element(text, ctx)
        spent = meter.spent
        assert spent >= sum(36 + 3 * ctx.degree + p for p in pairs)
        with metered() as meter:
            parse_element(text, ctx)
        assert meter.spent == spent

    # An element product is charged 20 units per term pair, vanishing or not.
    @pytest.mark.parametrize("text", [
        "(x+y+g)^4", "(1+x)^3*(y-g)^2", "x*y*g - (g+1)^5", "(x - 2*y^2)^3*g^2",
    ])
    def test_budget_covers_the_pairs_taken_on_elements(self, text):
        with counted_pairs() as taken, metered() as meter:
            parse_element(text, CTX3)
        assert meter.spent >= 20 * taken[0] > 0

    # Random trees against a value multiplied out on the test side, with
    # no square-and-multiply and no shared tree walk.
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_evaluate_matches_naive_products(self, n, data):
        ctx = make_context(n)
        text, value = data.draw(sums(ctx, 1))
        assert parse_element(text, ctx) == value, text
