"""Automorphisms, equivalence witnesses, matrix criterion, candidate scan."""

from fractions import Fraction

import pytest

from radford.algebra import Element, Monomial, basis, generators
from radford.coalgebra import delta, tensor_of
from radford.classify import (
    _cayley_matrix,
    apply_automorphism,
    equivalence_witness_diag,
    make_automorphism_diag,
    make_automorphism_matrix,
    scan_star_candidates,
    solve_equivalence_n2,
    verify_equivalence,
)
from radford.errors import InvalidAutomorphismError, KernelError
from radford.parser import parse_scalar
from radford.scalars import MAX_SCAN_CANDIDATES, make_context
from radford.star import make_star_diag, make_star_matrix

from oracles import _invertible_point, n2_polarization_oracle, n2_search_oracle, \
    scan_oracle


class TestAutomorphisms:
    def test_identity(self):
        ctx = make_context(3)
        phi = make_automorphism_diag(ctx, ctx.one, ctx.one)
        for b in basis(ctx):
            eb = Element(ctx, {b: ctx.one})
            assert apply_automorphism(phi, eb) == eb

    def test_diagonal_rescaling_any_n(self):
        ctx = make_context(4)
        phi = make_automorphism_diag(ctx, ctx.i(), ctx.from_int(-1))
        target = Element.monomial(ctx, 1, 1, 1)
        assert apply_automorphism(phi, target) \
            == target.scale(-ctx.i())

    def test_zero_scalar_rejected(self):
        ctx = make_context(3)
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism_diag(ctx, ctx.zero, ctx.one)

    def test_swap_at_n2(self):
        ctx = make_context(2)
        phi = make_automorphism_matrix(
            ctx, (ctx.zero, ctx.one, ctx.one, ctx.zero)
        )
        x = Element.monomial(ctx, 0, 1, 0)
        y = Element.monomial(ctx, 1, 0, 0)
        assert apply_automorphism(phi, x) == y
        assert apply_automorphism(phi, y) == x

    def test_matrix_kind_rejected_outside_n2(self):
        ctx = make_context(3)
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism_matrix(
                ctx, (ctx.one, ctx.one, ctx.zero, ctx.one)
            )

    def test_singular_matrix_rejected(self):
        ctx = make_context(2)
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism_matrix(
                ctx, (ctx.one, ctx.one, ctx.one, ctx.one)
            )

    def test_coproduct_intertwined(self):
        ctx = make_context(3)
        lam = ctx.omega()
        phi = make_automorphism_diag(ctx, lam, ctx.one)
        g, x, y = generators(ctx)
        img = apply_automorphism(phi, x)
        assert delta(img) == tensor_of(img, g) + tensor_of(Element.one(ctx), img)


class TestVerifyEquivalence:
    def test_identity_fixes_any_structure(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.omega(), ctx.zeta(2))
        phi = make_automorphism_diag(ctx, ctx.one, ctx.one)
        assert verify_equivalence(phi, st, st)

    def test_identity_fixes_matrix_structures(self):
        ctx = make_context(2)
        phi = make_automorphism_diag(ctx, ctx.one, ctx.one)
        for st in _matrix_witness_set(ctx):
            assert verify_equivalence(phi, st, st)

    def test_direction_conjugate_square(self):
        # phi = diag(l1, 1) with l1^2 = conj(alpha) carries diag(alpha, 1)
        # to the trivial structure; alpha = zeta_12, l1 = zeta_24^(-1).
        ctx = make_context(3)
        big = make_context(3, 24)
        alpha = ctx.zeta(1)
        phi = make_automorphism_diag(big, big.zeta(-1), big.one)
        st = make_star_diag(ctx, alpha, ctx.one)
        trivial = make_star_diag(big, big.one, big.one)
        assert verify_equivalence(phi, st, trivial)

    def test_direction_plain_square_is_the_reverse(self):
        # With l1^2 = alpha (l1 = zeta_24) the same shape of map carries the
        # trivial structure to diag(alpha, 1), not the other way around.
        ctx = make_context(3)
        big = make_context(3, 24)
        alpha = ctx.zeta(1)
        phi = make_automorphism_diag(big, big.zeta(1), big.one)
        st = make_star_diag(ctx, alpha, ctx.one)
        trivial = make_star_diag(big, big.one, big.one)
        assert verify_equivalence(phi, trivial, st)
        assert not verify_equivalence(phi, st, trivial)


class TestWitnessDiag:
    def test_trivial_structure_gets_identity(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.one, ctx.one)
        phi = equivalence_witness_diag(st)
        assert phi.lambda1 == 1 and phi.lambda2 == 1

    def test_minus_one_pair_gets_i(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.from_int(-1), ctx.from_int(-1))
        phi = equivalence_witness_diag(st)
        assert phi.ctx is ctx
        assert phi.lambda1 in (ctx.i(), -ctx.i())
        assert phi.lambda1 * phi.lambda1 == ctx.from_int(-1)

    def test_omega_pair_verified(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.omega(), ctx.omega(2))
        phi = equivalence_witness_diag(st)
        trivial = make_star_diag(phi.ctx, phi.ctx.one, phi.ctx.one)
        assert verify_equivalence(phi, st.embed(phi.ctx), trivial)

    def test_odd_exponent_stays_in_context(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.zeta(1), ctx.one)
        phi = equivalence_witness_diag(st)
        assert phi.ctx is ctx
        trivial = make_star_diag(ctx, ctx.one, ctx.one)
        assert verify_equivalence(phi, st, trivial)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cayley_witness_for_every_root_pair(self, n):
        ctx = make_context(n)
        trivial = make_star_diag(ctx, ctx.one, ctx.one)
        for j in range(ctx.m):
            for k in range(ctx.m):
                st = make_star_diag(ctx, ctx.zeta(j), ctx.zeta(k))
                phi = equivalence_witness_diag(st)
                assert phi.ctx is ctx, (n, j, k)
                assert verify_equivalence(phi, st, trivial), (n, j, k)

    @pytest.mark.parametrize("re_", [3, -3])
    def test_cayley_witness_for_pythagorean_parameters(self, re_):
        # (+-3 + 4i)/5 has norm one but is not a root of unity.
        for n in (3, 4, 5, 6):
            ctx = make_context(n)
            a = (ctx.from_int(re_) + ctx.from_int(4) * ctx.i()) \
                * ctx.from_fraction(Fraction(1, 5))
            trivial = make_star_diag(ctx, ctx.one, ctx.one)
            for k in range(ctx.m):
                for pair in ((a, ctx.zeta(k)), (ctx.zeta(k), a)):
                    st = make_star_diag(ctx, *pair)
                    phi = equivalence_witness_diag(st)
                    assert phi.ctx is ctx, (n, k)
                    assert verify_equivalence(phi, st, trivial), (n, k)

    def test_rejected_for_n2(self):
        ctx = make_context(2)
        st = make_star_diag(ctx, ctx.one, ctx.one)
        with pytest.raises(KernelError):
            equivalence_witness_diag(st)

    def test_non_root_parameter_reported(self):
        # (3 + 4i)/5 is no root of unity; its witness is (1 + conj a)/2.
        ctx = make_context(3)
        a = (ctx.from_int(3) + ctx.from_int(4) * ctx.i()) \
            * ctx.from_fraction(Fraction(1, 5))
        st = make_star_diag(ctx, a, ctx.one)
        phi = equivalence_witness_diag(st)
        assert phi.ctx is ctx
        assert phi.lambda1 == (ctx.from_int(4) - ctx.from_int(2) * ctx.i()) \
            * ctx.from_fraction(Fraction(1, 5))
        assert phi.lambda2 == 1


def _matrix_witness_set(ctx):
    half = ctx.from_fraction(Fraction(1, 2))
    return [
        make_star_matrix(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one)),
        make_star_matrix(ctx, (ctx.zero, ctx.one, ctx.one, ctx.zero)),
        make_star_matrix(ctx, (ctx.i(), ctx.zero, ctx.zero, -ctx.i())),
        make_star_matrix(ctx, (ctx.zero, ctx.from_int(2), half, ctx.zero)),
    ]


def _more_matrix_witnesses(ctx):
    # Every A with conj(A) A = I is S conj(S)^-1; [[1, 2i], [0, 1]] comes
    # from S = [[1, i], [0, 1]].
    i = ctx.i()
    fifth = ctx.from_fraction(Fraction(1, 5))
    half = ctx.from_fraction(Fraction(1, 2))
    return [
        make_star_matrix(ctx, (i, ctx.zero, ctx.zero, i)),
        make_star_matrix(ctx, ((ctx.from_int(3) + ctx.from_int(4) * i) * fifth,
                               ctx.zero, ctx.zero, ctx.one)),
        make_star_matrix(ctx, (ctx.zero, ctx.one + i, (ctx.one + i) * half,
                               ctx.zero)),
        make_star_matrix(ctx, (ctx.one, ctx.from_int(2) * i, ctx.zero, ctx.one)),
    ]


class TestSolveEquivalenceN2:
    def test_reflexive_identity_witness(self):
        ctx = make_context(2)
        st = make_star_matrix(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one))
        res = solve_equivalence_n2(st, st)
        assert res.equivalent is True
        assert res.witness.matrix == (ctx.one, ctx.zero, ctx.zero, ctx.one)

    def test_hand_derived_witness_confirmed(self):
        ctx = make_context(2)
        st_i = make_star_matrix(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one))
        st_d = make_star_matrix(ctx, (ctx.i(), ctx.zero, ctx.zero, -ctx.i()))
        lam = make_automorphism_matrix(
            ctx, (ctx.one + ctx.i(), ctx.zero, ctx.zero, ctx.one - ctx.i())
        )
        assert verify_equivalence(lam, st_i, st_d)
        res = solve_equivalence_n2(st_i, st_d)
        assert res.equivalent is True
        assert verify_equivalence(res.witness, st_i, st_d)

    def test_all_witness_pairs_are_witness_backed(self):
        ctx = make_context(2)
        stars = _matrix_witness_set(ctx)
        for st_a in stars:
            for st_b in stars:
                res = solve_equivalence_n2(st_a, st_b)
                if res.equivalent is True:
                    assert res.witness is not None
                    assert verify_equivalence(res.witness, st_a, st_b)
                else:
                    assert res.witness is None

    def test_symmetry_via_inverse_witness(self):
        ctx = make_context(2)
        stars = _matrix_witness_set(ctx)
        for st_a in stars:
            for st_b in stars:
                res = solve_equivalence_n2(st_a, st_b)
                if res.equivalent is not True:
                    continue
                back = solve_equivalence_n2(st_b, st_a)
                assert back.equivalent is True
                l11, l12, l21, l22 = res.witness.matrix
                det = l11 * l22 - l12 * l21
                dinv = det.inverse()
                inv_entries = (
                    l22 * dinv, -l12 * dinv, -l21 * dinv, l11 * dinv
                )
                phi_inv = make_automorphism_matrix(ctx, inv_entries)
                assert verify_equivalence(phi_inv, st_b, st_a)

    def test_requires_matrix_kind(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.one, ctx.one)
        with pytest.raises(KernelError):
            solve_equivalence_n2(st, st)

    def test_agrees_with_search_oracle(self):
        ctx = make_context(2)
        stars = _matrix_witness_set(ctx) + _more_matrix_witnesses(ctx)
        for st_a in stars:
            for st_b in stars:
                res = solve_equivalence_n2(st_a, st_b)
                found = n2_search_oracle(st_a, st_b)
                assert found is not None, "search bound exhausted"
                assert res.equivalent is bool(found)
                assert res.equivalent is bool(n2_polarization_oracle(st_a, st_b))
                assert verify_equivalence(res.witness, st_a, st_b)

    def test_larger_conductor(self):
        # Structures from Q(i) embedded in Q(zeta_8): the witness lives in
        # the larger field and the verdicts stay the same.
        ctx = make_context(2)
        big = make_context(2, 8)
        stars = _matrix_witness_set(ctx) + _more_matrix_witnesses(ctx)
        for st_a in stars:
            for st_b in stars:
                res = solve_equivalence_n2(st_a.embed(big), st_b)
                assert res.equivalent is True
                assert res.witness.ctx is big
                assert verify_equivalence(res.witness, st_a.embed(big),
                                          st_b.embed(big))
                assert n2_search_oracle(st_a.embed(big), st_b)
                assert n2_polarization_oracle(st_a.embed(big), st_b)

    # L_c = c I + conj(c) conj(A) for the first c in (1, i, 1 + i) that
    # makes it invertible.  -I takes c = i, diag(1, -1) needs c = 1 + i,
    # and the last two rows need c = 1 (i and 1 + i fail) and c = i (1 and
    # 1 + i fail), so dropping any c leaves some A without a witness.
    @pytest.mark.parametrize("a, lam", [
        ((1, 0, 0, 1), (2, 0, 0, 2)),
        ((-1, 0, 0, -1), (2j, 0, 0, 2j)),
        ((1, 0, 0, -1), (2, 0, 0, 2j)),
        ((1, 0, 0, 1j), (2, 0, 0, 1 - 1j)),
        ((-1, 0, 0, 1j), (2j, 0, 0, -1 + 1j)),
    ])
    def test_cayley_matrix_takes_the_first_invertible_c(self, a, lam):
        ctx = make_context(2)

        def scalar(v):
            v = complex(v)
            return ctx.from_int(int(v.real)) + ctx.from_int(int(v.imag)) * ctx.i()

        a = tuple(map(scalar, a))
        assert _cayley_matrix(ctx, a) == list(map(scalar, lam))
        st = make_star_matrix(ctx, a)
        trivial = make_star_matrix(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one))
        for st_a, st_b in ((st, trivial), (trivial, st), (st, st)):
            assert verify_equivalence(
                solve_equivalence_n2(st_a, st_b).witness, st_a, st_b)


class TestInvertiblePoint:
    @staticmethod
    def _unit_matrices(ctx):
        return [[ctx.one if t == k else ctx.zero for t in range(4)]
                for k in range(4)]

    def test_degenerate_kernel_has_no_witness(self):
        # span{E11, E12}: every matrix in it has a zero second row.
        ctx = make_context(2)
        e11, e12, _, _ = self._unit_matrices(ctx)
        assert _invertible_point([e11, e12]) is None
        assert _invertible_point([]) is None

    def test_sum_of_singular_basis_vectors(self):
        # span{E11, E22}: both basis vectors are singular, E11 + E22 is not.
        ctx = make_context(2)
        e11, _, _, e22 = self._unit_matrices(ctx)
        assert _invertible_point([e11, e22]) \
            == (ctx.one, ctx.zero, ctx.zero, ctx.one)

    def test_basis_vectors_come_first(self):
        ctx = make_context(2)
        e11, e12, e21, e22 = self._unit_matrices(ctx)
        swap = [a + b for a, b in zip(e12, e21)]
        assert _invertible_point([e11, e22, swap]) == tuple(swap)


class TestScan:
    def test_n3_survivors_are_diagonal_units(self):
        ctx = make_context(3)
        grid = [ctx.zero, ctx.one, -ctx.one, ctx.i(), -ctx.i()]
        survivors = scan_star_candidates(ctx, grid=grid)
        units = {ctx.one, -ctx.one, ctx.i(), -ctx.i()}
        assert len(survivors) == 16
        g_el = Element.monomial(ctx, 0, 0, 1)
        for st in survivors:
            assert st.g_img == g_el
            assert set(st.x_img.terms) == {Monomial(0, 1, 0)}
            assert set(st.y_img.terms) == {Monomial(1, 0, 0)}
            assert st.x_img.terms[Monomial(0, 1, 0)] in units
            assert st.y_img.terms[Monomial(1, 0, 0)] in units

    def test_n2_survivors_match_involutive_matrices(self):
        from itertools import product as iproduct

        ctx = make_context(2)
        grid = [ctx.zero, ctx.one, -ctx.one, ctx.i(), -ctx.i()]
        survivors = scan_star_candidates(ctx, grid=grid)
        expected = 0
        for a11, a12, a21, a22 in iproduct(grid, repeat=4):
            prod = (
                a11.conjugate() * a11 + a12.conjugate() * a21,
                a11.conjugate() * a12 + a12.conjugate() * a22,
                a21.conjugate() * a11 + a22.conjugate() * a21,
                a21.conjugate() * a12 + a22.conjugate() * a22,
            )
            if prod == (ctx.one, ctx.zero, ctx.zero, ctx.one):
                expected += 1
        assert len(survivors) == expected
        # no survivor moves g or mixes in 1 - g
        g_el = Element.monomial(ctx, 0, 0, 1)
        xy = {Monomial(0, 1, 0), Monomial(1, 0, 0)}
        for st in survivors:
            assert st.g_img == g_el
            assert set(st.x_img.terms) <= xy
            assert set(st.y_img.terms) <= xy

    def test_shifted_group_image_never_survives(self):
        ctx = make_context(3)
        grid = [ctx.zero, ctx.one, -ctx.one]
        survivors = scan_star_candidates(ctx, grid=grid)
        g_el = Element.monomial(ctx, 0, 0, 1)
        assert survivors
        for st in survivors:
            assert st.g_img == g_el

    # The grids used elsewhere in the tests, the n = 2 default grid, and
    # small grids mixing units, Pythagorean values and non-units.
    @pytest.mark.parametrize("n, grid", [
        (2, "0,1,-1"),
        (3, "0,1,-1"),
        (2, "0,1,-1,i,-i"),
        (3, "0,1,-1,i,-i"),
        (2, None),
        (3, "0,3/5+4/5*i,2"),
        (4, "-i,0,1/2,3/5-4/5*i"),
        (5, "0,i,1+i,-4/5+3/5*i"),
    ])
    def test_matches_brute_force_oracle(self, n, grid):
        ctx = make_context(n)
        if grid is not None:
            grid = [parse_scalar(t, ctx) for t in grid.split(",")]
        got = scan_star_candidates(ctx, grid=grid)
        want = scan_oracle(ctx, grid=grid)
        assert [(st.g_img, st.x_img, st.y_img) for st in got] \
            == [(st.g_img, st.x_img, st.y_img) for st in want]

    # 10^3 images and 10^4 pairs at n = 2, 22^3 + 22 images at n = 3: the
    # smallest grids above the limit (9 and 21 values fit).
    @pytest.mark.parametrize("n, size, count", [(2, 10, 11000), (3, 22, 10670)])
    def test_oversized_grid_is_refused_before_screening(self, n, size, count):
        assert (size - 1) ** 3 + (size - 1) ** (4 if n == 2 else 1) \
            <= MAX_SCAN_CANDIDATES < count
        ctx = make_context(n)
        grid = [ctx.from_int(k) for k in range(size)]
        with pytest.raises(KernelError, match=f"has {count} candidates"):
            scan_star_candidates(ctx, grid=grid)
