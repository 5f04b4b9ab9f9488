"""Coproduct, counit, antipode, and the closed coproduct formula."""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from oracles import antipode_oracle, basis, count_calls, delta_oracle, generators, \
    make_star_diag, make_star_matrix, qbinom_pascal_oracle
from radford import coalgebra, star
from radford.algebra import Element, Monomial, SparseTerms
from radford.classify import make_automorphism
from radford.coalgebra import (
    TensorElement,
    _qbinom_row,
    antipode,
    antipode_order,
    counit,
    delta,
    delta_closed,
    tensor_map,
    tensor_mul,
    tensor_of,
    triple_delta_sides,
)
from radford.errors import KernelError
from radford.scalars import make_context
from radford.star import apply_map, verify_hopf_axioms, verify_star_axioms


class TestQBinom:
    def test_left_edge_is_one(self):
        ctx = make_context(5)
        for k in range(6):
            row = _qbinom_row(ctx, k, 1)
            assert len(row) == k + 1
            assert row[0] == 1
            assert row[k] == 1

    def test_one_step_of_the_recurrence(self):
        ctx = make_context(3)
        w = ctx.omega()
        assert _qbinom_row(ctx, 2, 1)[1] == ctx.one + w

    def test_vanishing_at_root_of_unity(self):
        ctx = make_context(3)
        assert _qbinom_row(ctx, 3, 1)[1] == 0

    def test_recurrence_holds(self):
        ctx = make_context(5)
        for sign in (1, -1):
            q = ctx.omega(sign)
            for k in range(2, 7):
                row, prev = _qbinom_row(ctx, k, sign), _qbinom_row(ctx, k - 1, sign)
                for j in range(1, k):
                    assert row[j] == prev[j - 1] + (q ** j) * prev[j]

    # The closed top row (-1)^t q^(-t(t+1)/2) against the q-Pascal rows.
    # The relation certificates never form D(x^(n-1)) or D(y^(n-1)), so at
    # large n only this test checks the row; (255, 1020) would take ~40 s.
    @pytest.mark.parametrize(
        "n, m", [(n, None) for n in [*range(2, 13), 16, 32, 64, 128]] + [(51, 204)],
        ids=[*map(str, [*range(2, 13), 16, 32, 64, 128]), "51-204"])
    def test_top_row_matches_pascal(self, n, m):
        ctx = make_context(n, m)
        for sign in (1, -1):
            assert _qbinom_row(ctx, n - 1, sign) \
                == qbinom_pascal_oracle(ctx, n - 1, sign), sign


class TestTensorOps:
    def test_xg_tensor_twist(self):
        ctx = make_context(3)
        x = Monomial(0, 1, 0)
        g = Monomial(0, 0, 1)
        one = Monomial(0, 0, 0)
        t1 = TensorElement(ctx, {(x, g): ctx.one})
        t2 = TensorElement(ctx, {(one, x): ctx.one})
        prod = tensor_mul(t1, t2)
        # right leg gx = w^-1 xg
        expected = TensorElement(
            ctx, {(x, Monomial(0, 1, 1)): ctx.omega(-1)}
        )
        assert prod == expected

    def test_yg_tensor_twist(self):
        ctx = make_context(3)
        y = Monomial(1, 0, 0)
        g = Monomial(0, 0, 1)
        one = Monomial(0, 0, 0)
        prod = tensor_mul(
            TensorElement(ctx, {(y, g): ctx.one}),
            TensorElement(ctx, {(one, y): ctx.one}),
        )
        expected = TensorElement(ctx, {(y, Monomial(1, 0, 1)): ctx.omega()})
        assert prod == expected

    def test_unit_tensor(self):
        ctx = make_context(3)
        one = Monomial(0, 0, 0)
        t = TensorElement(
            ctx,
            {(Monomial(1, 0, 0), Monomial(0, 1, 2)): ctx.omega()},
        )
        unit = TensorElement(ctx, {(one, one): ctx.one})
        assert tensor_mul(unit, t) == t
        assert tensor_mul(t, unit) == t

    def test_tensor_map_legwise_antipode(self):
        ctx = make_context(3)
        g, x, y = generators(ctx)
        t = tensor_of(x, g)
        mapped = tensor_map(t, antipode, antipode)
        assert mapped == tensor_of(antipode(x), antipode(g))


class TestDelta:
    def test_generator_coproducts(self):
        ctx = make_context(4)
        g, x, y = generators(ctx)
        one = Element.one(ctx)
        assert delta(g) == tensor_of(g, g)
        assert delta(x) == tensor_of(x, g) + tensor_of(one, x)
        assert delta(y) == tensor_of(y, g) + tensor_of(one, y)

    def test_delta_of_y_squared(self):
        ctx = make_context(3)
        g, x, y = generators(ctx)
        one = Element.one(ctx)
        got = delta(y * y)
        expected = (
            tensor_of(y * y, g * g)
            + tensor_of(y, y * g).scale(ctx.one + ctx.omega())
            + tensor_of(one, y * y)
        )
        assert got == expected

    def test_grouplike_powers(self):
        ctx = make_context(5)
        for l in range(5):
            gl = Element.monomial(ctx, 0, 0, l)
            assert delta(gl) == tensor_of(gl, gl)

    def test_delta_is_linear(self):
        ctx = make_context(3)
        g, x, y = generators(ctx)
        e = x.scale(ctx.omega()) + y
        assert delta(e) == delta(x).scale(ctx.omega()) + delta(y)


class TestDeltaClosed:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_multiplicative_extension(self, n):
        ctx = make_context(n)
        for b in basis(ctx):
            assert delta_closed(ctx, b) == delta_oracle(ctx, b), b

    def test_generator_agreement(self):
        ctx = make_context(5)
        assert delta_closed(ctx, Monomial(0, 1, 0)) == delta(
            Element.monomial(ctx, 0, 1, 0)
        )

    def test_pure_y_power_expansion(self):
        ctx = make_context(5)
        r = 3
        row = _qbinom_row(ctx, r, 1)
        d = delta_closed(ctx, Monomial(r, 0, 0))
        for i in range(r + 1):
            key = (Monomial(r - i, 0, 0), Monomial(i, 0, r - i))
            assert d.terms.get(key, ctx.zero) == row[i]

    def test_qbase_convention_resolved_by_experiment(self):
        # Fit the binomial base for each leg from the multiplicative
        # coproduct: the y-leg takes w, the x-leg takes w^(-1), and at
        # n >= 3 the two candidates genuinely differ.
        for n in (3, 4, 5):
            ctx = make_context(n)
            for r in range(n):
                d = delta_oracle(ctx, Monomial(r, 0, 0))
                row = _qbinom_row(ctx, r, 1)
                for i in range(r + 1):
                    key = (Monomial(r - i, 0, 0), Monomial(i, 0, (r - i) % n))
                    assert d.terms.get(key, ctx.zero) == row[i]
            for s in range(n):
                d = delta_oracle(ctx, Monomial(0, s, 0))
                row = _qbinom_row(ctx, s, -1)
                for j in range(s + 1):
                    key = (Monomial(0, s - j, 0), Monomial(0, j, (s - j) % n))
                    assert d.terms.get(key, ctx.zero) == row[j]
        ctx = make_context(3)
        d = delta_oracle(ctx, Monomial(0, 2, 0))
        key = (Monomial(0, 1, 0), Monomial(0, 1, 1))
        assert d.terms[key] == _qbinom_row(ctx, 2, -1)[1]
        assert d.terms[key] != _qbinom_row(ctx, 2, 1)[1]


class TestCounit:
    def test_on_group_powers(self):
        ctx = make_context(4)
        assert counit(Element.monomial(ctx, 0, 0, 3)) == 1

    def test_linear_combination(self):
        ctx = make_context(3)
        g, x, y = generators(ctx)
        assert counit(x + g.scale(ctx.from_int(5))) == 5

    def test_kills_one_minus_g(self):
        ctx = make_context(3)
        g, x, y = generators(ctx)
        assert counit(Element.one(ctx) - g) == 0


class TestAntipode:
    def test_generator_images(self):
        for n in (2, 3, 5):
            ctx = make_context(n)
            g, x, y = generators(ctx)
            assert antipode(g) == Element.monomial(ctx, 0, 0, n - 1)
            assert antipode(x) == Element.monomial(ctx, 0, 1, n - 1, -ctx.one)
            assert antipode(y) == Element.monomial(ctx, 1, 0, n - 1, -ctx.one)

    def test_antipode_of_xg(self):
        # S(g)S(x) normalizes to -w * x g^(n-2).
        for n in (3, 4, 5):
            ctx = make_context(n)
            g, x, y = generators(ctx)
            assert antipode(x * g) \
                == Element.monomial(ctx, 0, 1, n - 2, -ctx.omega())

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_antimultiplicative_extension(self, n):
        ctx = make_context(n)
        for b in basis(ctx):
            assert antipode(Element(ctx, {b: ctx.one})) == antipode_oracle(ctx, b), b

    def test_antipode_of_one(self):
        ctx = make_context(3)
        assert antipode(Element.one(ctx)) == Element.one(ctx)

    def test_square_acts_by_omega_on_generators(self):
        for n in (2, 3, 4, 5):
            ctx = make_context(n)
            g, x, y = generators(ctx)
            assert antipode(antipode(x)) == x.scale(ctx.omega(-1))
            assert antipode(antipode(y)) == y.scale(ctx.omega())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_order_is_twice_n(self, n):
        assert antipode_order(make_context(n)) == 2 * n

    def test_order_refuses_a_non_antimultiplicative_antipode(self, monkeypatch):
        # S = id fails the pair (g, x), as xg = w^-1 gx.  The order checks S
        # alone: it derives no Hopf certificate of ``star``, passing or not.
        ctx = make_context(4)
        derivations = count_calls(monkeypatch, star, "_hopf_certificate")
        assert antipode_order(ctx) == 8
        monkeypatch.setattr(coalgebra, "antipode", lambda e: e)
        with pytest.raises(KernelError, match="the antipode is not antimultiplicative"):
            antipode_order(ctx)
        assert derivations() == 0

    def test_antimultiplicative_on_basis_pairs(self):
        for n in (2, 3, 4):
            ctx = make_context(n)
            for a in basis(ctx):
                ea = Element(ctx, {a: ctx.one})
                for b in basis(ctx):
                    eb = Element(ctx, {b: ctx.one})
                    assert antipode(ea * eb) == antipode(eb) * antipode(ea)


class TestHopfLaws:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coassociativity(self, n):
        ctx = make_context(n)
        for b in basis(ctx):
            lhs, rhs = triple_delta_sides(Element(ctx, {b: ctx.one}))
            assert lhs == rhs

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counit_law(self, n):
        ctx = make_context(n)
        for b in basis(ctx):
            eb = Element(ctx, {b: ctx.one})
            left = Element.zero(ctx)
            right = Element.zero(ctx)
            for (u, v), c in delta(eb).terms.items():
                if u.r == 0 and u.s == 0:
                    left = left + Element(ctx, {v: c})
                if v.r == 0 and v.s == 0:
                    right = right + Element(ctx, {u: c})
            assert left == eb and right == eb

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_antipode_law(self, n):
        ctx = make_context(n)
        for b in basis(ctx):
            eb = Element(ctx, {b: ctx.one})
            target = Element.from_scalar(ctx, counit(eb))
            left = Element.zero(ctx)
            right = Element.zero(ctx)
            for (u, v), c in delta(eb).terms.items():
                left = left + antipode(Element(ctx, {u: c})) * Element(ctx, {v: ctx.one})
                right = right + Element(ctx, {u: c}) * antipode(Element(ctx, {v: ctx.one}))
            assert left == target and right == target

    @pytest.mark.parametrize("n", [2, 3])
    def test_bialgebra_compatibility(self, n):
        ctx = make_context(n)
        for a in basis(ctx):
            ea = Element(ctx, {a: ctx.one})
            da = delta(ea)
            for b in basis(ctx):
                eb = Element(ctx, {b: ctx.one})
                assert delta(ea * eb) == tensor_mul(da, delta(eb))
                assert counit(ea * eb) == counit(ea) * counit(eb)


def _fold(zero, pieces):
    """A sum one term at a time with ``+``: the reference for the one sum."""
    acc = zero
    for piece in pieces:
        acc = acc + piece
    return acc


def _sum_maps(ctx):
    """A star and an automorphism; at n = 2 both mix x and y, so the images
    of distinct monomials share monomials."""
    if ctx.n == 2:
        q = [ctx.from_fraction(Fraction(k, 5)) for k in (3, 4, 4, -3)]
        return make_star_matrix(ctx, q), make_automorphism(
            ctx, (ctx.one, ctx.one, ctx.zero, ctx.one))
    return (make_star_diag(ctx, ctx.zeta(1), ctx.zeta(-1)),
            make_automorphism(ctx, (ctx.zeta(1), ctx.zero, ctx.zero, ctx.from_int(2))))


@hst.composite
def sum_cases(draw):
    """(ctx, a, b, h, kill) at n = 2..5.  Products of random elements
    collide on keys; with ``kill``, a = p (1 - g) and b = (1 + g + ... +
    g^(n-1)) q, so that all of a b cancels."""
    n = draw(hst.integers(2, 5))
    ctx = make_context(n)
    exps = hst.integers(0, n - 1)
    coeffs = hst.tuples(hst.sampled_from((-2, -1, 1, 2)), hst.integers(0, ctx.m - 1))

    def element(size):
        terms = draw(hst.lists(hst.tuples(exps, exps, exps, coeffs),
                               min_size=1, max_size=size))
        return Element(ctx, {Monomial(r, s, l): ctx.from_int(v) * ctx.zeta(k)
                             for r, s, l, (v, k) in terms})

    a, b, h = element(3), element(3), element(2)
    kill = draw(hst.booleans())
    if kill:
        g = Element.monomial(ctx, 0, 0, 1)
        a = a * (Element.one(ctx) - g)
        b = _fold(Element.zero(ctx), (g ** k for k in range(n))) * b
    return ctx, a, b, h, kill


def _terms_of(ctx, v, cls):
    """v term by term, each term a value of ``cls``."""
    return [cls(ctx, {k: c}) for k, c in v.terms.items()]


class TestOneSum:
    """Each map that sums sparse terms equals the fold of its values on the
    single terms of its input, stores no zero coefficient, and is zero
    where its terms cancel."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(sum_cases())
    def test_products_match_the_fold(self, case):
        ctx, a, b, h, kill = case
        got = a * b
        want = _fold(Element.zero(ctx), (u * v for u in _terms_of(ctx, a, Element)
                                         for v in _terms_of(ctx, b, Element)))
        assert got == want and all(got.terms.values())
        assert got.is_zero or not kill
        t1, t2 = tensor_of(a, h), tensor_of(b, h)
        got = tensor_mul(t1, t2)
        want = _fold(TensorElement.zero(ctx), (
            tensor_mul(u, v) for u in _terms_of(ctx, t1, TensorElement)
            for v in _terms_of(ctx, t2, TensorElement)))
        assert got == want and all(got.terms.values())
        assert got.is_zero or not kill

    @settings(max_examples=30, deadline=None, database=None)
    @given(sum_cases())
    def test_linear_maps_match_the_fold(self, case):
        ctx, a, b, _, _ = case
        e = a + b
        singles = _terms_of(ctx, e, Element)
        st, phi = _sum_maps(ctx)
        star_map = partial(apply_map, st)
        d = delta(e)
        cases = [
            (d, _fold(TensorElement.zero(ctx), map(delta, singles))),
            (apply_map(st, e), _fold(Element.zero(ctx), map(star_map, singles))),
            (apply_map(phi, e), _fold(Element.zero(ctx),
                                      (apply_map(phi, u) for u in singles))),
            (tensor_map(d, star_map, star_map), _fold(TensorElement.zero(ctx), (
                tensor_map(t, star_map, star_map)
                for t in _terms_of(ctx, d, TensorElement)))),
        ]
        sides = [triple_delta_sides(u) for u in singles]
        for i, side in enumerate(triple_delta_sides(e)):
            cases.append((side, _fold(SparseTerms.zero(ctx), (s[i] for s in sides))))
        for got, want in cases:
            assert got == want and all(got.terms.values())


def test_no_fold_over_terms(monkeypatch):
    # With + refused on elements and tensors, every map and verifier still
    # returns: each sums its terms in one ``SparseTerms.collect``.
    def refuse(self, other):
        raise AssertionError("a sum term by term")

    monkeypatch.setattr(Element, "__add__", refuse)
    monkeypatch.setattr(TensorElement, "__add__", refuse)
    ctx = make_context(4)
    e = Element(ctx, {Monomial(r, s, l): ctx.zeta(r + 2 * s + l)
                      for r, s, l in ((0, 0, 0), (1, 2, 3), (3, 3, 1), (2, 0, 1))})
    st = make_star_diag(ctx, ctx.zeta(1), ctx.zeta(3))
    phi = make_automorphism(ctx, (ctx.zeta(1), ctx.zero, ctx.zero, ctx.one))
    star_map = partial(apply_map, st)
    assert not tensor_map(delta(e), star_map, star_map).is_zero
    assert not apply_map(phi, e).is_zero
    assert not triple_delta_sides(e)[0].is_zero
    assert verify_star_axioms(st).all_passed
    assert verify_hopf_axioms(ctx).all_passed
