"""Automorphisms, equivalence witnesses, matrix criterion, candidate scan."""

from fractions import Fraction
from itertools import product

import pytest

import radford.algebra
import radford.classify
import radford.star
from radford import jsonio
from radford.algebra import Element, Monomial
from radford.coalgebra import delta, tensor_of
from radford.classify import (
    _cayley_matrix,
    _star_matrices,
    equivalence_witness,
    make_automorphism,
    scan_star_candidates,
)
from radford.cli import main
from radford.errors import ContextMismatchError, InvalidAutomorphismError, \
    InvalidStarStructureError, KernelError
from radford.parser import parse_scalar
from radford.scalars import CyclotomicScalar, make_context
from radford.star import GeneratorMap, apply_map, family_defect

from oracles import _invertible_point, basis, equivalence_oracle, generators, \
    hopf_map_oracle, make_star_diag, make_star_matrix, metered, n2_polarization_oracle, \
    n2_search_oracle, scan_oracle, verify_equivalence


def assert_listing_is_the_k4_filter(ctx, grid, off):
    """``_star_matrices`` lists the grid matrices that ``family_defect``
    admits, in product(grid, repeat=4) order."""
    want = [a for a in product(grid, repeat=4) if family_defect(ctx, a) is None]
    assert list(_star_matrices(grid, off)) == want


def diag_map(ctx, l1, l2):
    """The automorphism x -> l1 x, y -> l2 y."""
    return make_automorphism(ctx, (l1, ctx.zero, ctx.zero, l2))


def witness_to_trivial(st):
    """The witness carrying st to the trivial structure diag(1, 1)."""
    ctx = st.ctx
    return equivalence_witness(st, make_star_diag(ctx, ctx.one, ctx.one))


def cayley_diag(ctx, alpha, beta):
    """diag(l(alpha), l(beta)) with l(a) = (c + conj(c) conj(a))/2, for the
    first c in (1, i, 1 + i) that leaves neither entry 0: (1 + conj(a))/2
    unless alpha or beta is -1."""
    half = ctx.from_fraction(Fraction(1, 2))
    for c in (ctx.one, ctx.i(), ctx.one + ctx.i()):
        l1, l2 = ((c + c.conjugate() * a.conjugate()) * half for a in (alpha, beta))
        if l1 and l2:
            return l1, ctx.zero, ctx.zero, l2


class TestAutomorphisms:
    def test_identity(self):
        ctx = make_context(3)
        phi = diag_map(ctx, ctx.one, ctx.one)
        for b in basis(ctx):
            eb = Element(ctx, {b: ctx.one})
            assert apply_map(phi, eb) == eb

    def test_diagonal_rescaling_any_n(self):
        ctx = make_context(4)
        phi = diag_map(ctx, ctx.i(), ctx.from_int(-1))
        target = Element.monomial(ctx, 1, 1, 1)
        assert apply_map(phi, target) \
            == target.scale(-ctx.i())

    def test_zero_scalar_rejected(self):
        ctx = make_context(3)
        with pytest.raises(InvalidAutomorphismError):
            diag_map(ctx, ctx.zero, ctx.one)

    def test_swap_at_n2(self):
        ctx = make_context(2)
        phi = make_automorphism(
            ctx, (ctx.zero, ctx.one, ctx.one, ctx.zero)
        )
        x = Element.monomial(ctx, 0, 1, 0)
        y = Element.monomial(ctx, 1, 0, 0)
        assert apply_map(phi, x) == y
        assert apply_map(phi, y) == x

    def test_matrix_kind_rejected_outside_n2(self):
        ctx = make_context(3)
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism(
                ctx, (ctx.one, ctx.one, ctx.zero, ctx.one)
            )

    def test_singular_matrix_rejected(self):
        ctx = make_context(2)
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism(
                ctx, (ctx.one, ctx.one, ctx.one, ctx.one)
            )

    def test_coproduct_intertwined(self):
        ctx = make_context(3)
        lam = ctx.omega()
        phi = diag_map(ctx, lam, ctx.one)
        g, x, y = generators(ctx)
        img = apply_map(phi, x)
        assert delta(img) == tensor_of(img, g) + tensor_of(Element.one(ctx), img)

    # Every matrix over 0, 1, i, 1 + i is a Hopf map at n = 2, and only the
    # 16 diagonal ones at n = 3; the invertible ones are the automorphisms.
    @pytest.mark.parametrize("n, hopf_maps", [(2, 256), (3, 16)])
    def test_admits_exactly_the_invertible_hopf_maps(self, n, hopf_maps):
        ctx = make_context(n)
        values = (ctx.zero, ctx.one, ctx.i(), ctx.one + ctx.i())
        passed = 0
        for lam in product(values, repeat=4):
            is_hopf = hopf_map_oracle(GeneratorMap.from_matrix(ctx, lam, is_star=False))
            passed += is_hopf
            try:
                make_automorphism(ctx, lam)
                admitted = True
            except InvalidAutomorphismError:
                admitted = False
            assert admitted == (is_hopf and bool(lam[0] * lam[3] - lam[1] * lam[2])), lam
        assert passed == hopf_maps

    # The matrix alone admits psi_L: no relation pair is checked.
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_no_relation_pair_is_checked(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a relation pair was checked")

        monkeypatch.setattr(radford.algebra, "_relation_counterexample", refuse)
        monkeypatch.setattr(radford.star, "_relation_counterexample", refuse)
        ctx = make_context(n)
        one, i = ctx.one, ctx.i()
        matrices = [(ctx.omega(), ctx.zero, ctx.zero, one + i)]
        if n == 2:
            matrices.append((one, i, ctx.from_int(2), ctx.zero))
        for lam in matrices:
            assert make_automorphism(ctx, lam).matrix == lam
        trivial = make_star_diag(ctx, one, one)
        for st in (make_star_diag(ctx, ctx.zeta(1), -one), trivial):
            assert verify_equivalence(equivalence_witness(st, trivial), st, trivial)


class TestVerifyEquivalence:
    # x -> x + 1 and g -> g^2 carry no star to a star (equivalence_oracle
    # says so), x -> 0 is not bijective, and a star is no automorphism:
    # none of them is some psi_L, so none is compared.
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_refuses_what_is_not_an_automorphism(self, n):
        ctx = make_context(n)
        g, x, y = generators(ctx)
        trivial = make_star_diag(ctx, ctx.one, ctx.one)
        not_hopf = [GeneratorMap(ctx, g, x + Element.one(ctx), y, is_star=False),
                    GeneratorMap(ctx, g * g, x, y, is_star=False)]
        for phi in not_hopf:
            assert not equivalence_oracle(phi, trivial, trivial)
        for phi in not_hopf + [GeneratorMap(ctx, g, Element.zero(ctx), y, is_star=False),
                               trivial]:
            with pytest.raises(InvalidAutomorphismError):
                verify_equivalence(phi, trivial, trivial)

    def test_identity_fixes_any_structure(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.omega(), ctx.zeta(2))
        phi = diag_map(ctx, ctx.one, ctx.one)
        assert verify_equivalence(phi, st, st)

    def test_identity_fixes_matrix_structures(self):
        ctx = make_context(2)
        phi = diag_map(ctx, ctx.one, ctx.one)
        for st in _matrix_witness_set(ctx):
            assert verify_equivalence(phi, st, st)

    def test_direction_conjugate_square(self):
        # phi = diag(l1, 1) with l1^2 = conj(alpha) carries diag(alpha, 1)
        # to the trivial structure; alpha = zeta_12, l1 = zeta_24^(-1).
        big = make_context(3, 24)
        alpha = big.zeta(2)
        phi = diag_map(big, big.zeta(-1), big.one)
        st = make_star_diag(big, alpha, big.one)
        trivial = make_star_diag(big, big.one, big.one)
        assert verify_equivalence(phi, st, trivial)

    def test_direction_plain_square_is_the_reverse(self):
        # With l1^2 = alpha (l1 = zeta_24) the same shape of map carries the
        # trivial structure to diag(alpha, 1), not the other way around.
        big = make_context(3, 24)
        alpha = big.zeta(2)
        phi = diag_map(big, big.zeta(1), big.one)
        st = make_star_diag(big, alpha, big.one)
        trivial = make_star_diag(big, big.one, big.one)
        assert verify_equivalence(phi, trivial, st)
        assert not verify_equivalence(phi, st, trivial)


class TestWitnessDiag:
    def test_trivial_structure_gets_identity(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.one, ctx.one)
        phi = witness_to_trivial(st)
        assert phi.matrix[0] == 1 and phi.matrix[3] == 1

    def test_minus_one_pair_gets_i(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.from_int(-1), ctx.from_int(-1))
        phi = witness_to_trivial(st)
        assert phi.ctx is ctx
        assert phi.matrix[0] in (ctx.i(), -ctx.i())
        assert phi.matrix[0] * phi.matrix[0] == ctx.from_int(-1)

    def test_omega_pair_verified(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.omega(), ctx.omega(2))
        phi = witness_to_trivial(st)
        trivial = make_star_diag(phi.ctx, phi.ctx.one, phi.ctx.one)
        assert verify_equivalence(phi, st, trivial)

    def test_odd_exponent_stays_in_context(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.zeta(1), ctx.one)
        phi = witness_to_trivial(st)
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
                phi = witness_to_trivial(st)
                assert phi.ctx is ctx, (n, j, k)
                assert phi.matrix == cayley_diag(ctx, *st.matrix[::3]), (n, j, k)
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
                    phi = witness_to_trivial(st)
                    assert phi.ctx is ctx, (n, k)
                    assert phi.matrix == cayley_diag(ctx, *pair), (n, k)
                    assert verify_equivalence(phi, st, trivial), (n, k)

    def test_equiv_diag_at_n2(self, capsys):
        # The witness takes diagonal structures at any n, and so does the
        # `equiv diag` command; at n = 2 the witness is written as kind matrix2.
        assert main(["--n", "2", "equiv", "diag", "--alpha", "1", "--beta", "1"]) == 0
        assert capsys.readouterr().out == "equivalent\n"
        ctx = make_context(2)
        phi = witness_to_trivial(make_star_diag(ctx, ctx.i(), -ctx.one))
        assert jsonio.equivalence_to_json(phi)["witness"]["kind"] == "matrix2"

    def test_non_root_parameter_reported(self):
        # (3 + 4i)/5 is no root of unity; its witness is (1 + conj a)/2.
        ctx = make_context(3)
        a = (ctx.from_int(3) + ctx.from_int(4) * ctx.i()) \
            * ctx.from_fraction(Fraction(1, 5))
        st = make_star_diag(ctx, a, ctx.one)
        phi = witness_to_trivial(st)
        assert phi.ctx is ctx
        assert phi.matrix[0] == (ctx.from_int(4) - ctx.from_int(2) * ctx.i()) \
            * ctx.from_fraction(Fraction(1, 5))
        assert phi.matrix[3] == 1


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
        phi = equivalence_witness(st, st)
        assert phi.matrix == (ctx.one, ctx.zero, ctx.zero, ctx.one)

    def test_hand_derived_witness_confirmed(self):
        ctx = make_context(2)
        st_i = make_star_matrix(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one))
        st_d = make_star_matrix(ctx, (ctx.i(), ctx.zero, ctx.zero, -ctx.i()))
        lam = make_automorphism(
            ctx, (ctx.one + ctx.i(), ctx.zero, ctx.zero, ctx.one - ctx.i())
        )
        assert verify_equivalence(lam, st_i, st_d)
        assert verify_equivalence(equivalence_witness(st_i, st_d), st_i, st_d)

    def test_all_witness_pairs_are_witness_backed(self):
        ctx = make_context(2)
        stars = _matrix_witness_set(ctx)
        for st_a in stars:
            for st_b in stars:
                phi = equivalence_witness(st_a, st_b)
                assert not phi.is_star
                assert jsonio.equivalence_to_json(phi)["witness"]["kind"] == "matrix2"
                assert verify_equivalence(phi, st_a, st_b)

    def test_symmetry_via_inverse_witness(self):
        ctx = make_context(2)
        stars = _matrix_witness_set(ctx)
        for st_a in stars:
            for st_b in stars:
                back = equivalence_witness(st_b, st_a)
                assert verify_equivalence(back, st_b, st_a)
                l11, l12, l21, l22 = equivalence_witness(st_a, st_b).matrix
                det = l11 * l22 - l12 * l21
                dinv = det.inverse()
                inv_entries = (
                    l22 * dinv, -l12 * dinv, -l21 * dinv, l11 * dinv
                )
                phi_inv = make_automorphism(ctx, inv_entries)
                assert verify_equivalence(phi_inv, st_b, st_a)

    def test_verified_raw_stars(self):
        # A raw star that passes the verifier gets a witness, its matrix
        # read off the images: the identity written as raw, and a
        # structure that scan listed.
        for ctx in (make_context(2), make_context(3)):
            trivial = make_star_diag(ctx, ctx.one, ctx.one)
            for raw in (GeneratorMap(ctx, *generators(ctx)),
                        scan_star_candidates(ctx, grid=[ctx.zero, ctx.one])[0]):
                for pair in ((raw, trivial), (trivial, raw), (raw, raw)):
                    phi = equivalence_witness(*pair)
                    assert verify_equivalence(phi, *pair)
                    assert equivalence_oracle(phi, *pair)

    def test_pythagorean_scan_survivors(self):
        # The n = 2 survivors of 0, +-1, +-3/5, +-4/5, most of them
        # off-diagonal, each compared with diag(1, 1) and with the next one.
        ctx = make_context(2)
        grid = [parse_scalar(t, ctx) for t in "0,1,-1,3/5,-3/5,4/5,-4/5".split(",")]
        survivors = scan_star_candidates(ctx, grid=grid)
        assert len(survivors) == 38
        assert sum(bool(st.matrix[1] or st.matrix[2]) for st in survivors) == 34
        trivial = make_star_diag(ctx, ctx.one, ctx.one)
        for st_a, following in zip(survivors, survivors[1:] + survivors[:1]):
            for st_b in (trivial, following):
                phi = equivalence_witness(st_a, st_b)
                assert verify_equivalence(phi, st_a, st_b)
                assert equivalence_oracle(phi, st_a, st_b)

    def test_pythagorean_diag_written_as_raw(self):
        ctx = make_context(5)
        g, x, y = generators(ctx)
        a = parse_scalar("3/5 + 4/5*i", ctx)
        raw = GeneratorMap(ctx, g, x.scale(a), y.scale(a.conjugate()))
        diag = make_star_diag(ctx, a, a.conjugate())
        assert raw.matrix == diag.matrix
        for pair in ((raw, diag), (diag, raw), (raw, make_star_diag(ctx, ctx.one, ctx.one))):
            phi = equivalence_witness(*pair)
            assert verify_equivalence(phi, *pair)
            assert equivalence_oracle(phi, *pair)

    def test_raw_non_star_is_refused(self):
        # x* = 2x respects the relations; involution is the first check it fails.
        ctx = make_context(3)
        g, x, y = generators(ctx)
        scaled = GeneratorMap(ctx, g, x.scale(ctx.from_int(2)), y)
        trivial = make_star_diag(ctx, ctx.one, ctx.one)
        for pair in ((scaled, trivial), (trivial, scaled)):
            with pytest.raises(InvalidStarStructureError,
                               match=r"^not a star structure: FAIL involution at "):
                equivalence_witness(*pair)

    def test_agrees_with_search_oracle(self):
        ctx = make_context(2)
        stars = _matrix_witness_set(ctx) + _more_matrix_witnesses(ctx)
        for st_a in stars:
            for st_b in stars:
                phi = equivalence_witness(st_a, st_b)
                found = n2_search_oracle(st_a, st_b)
                assert found is not None, "search bound exhausted"
                assert found
                assert n2_polarization_oracle(st_a, st_b)
                assert verify_equivalence(phi, st_a, st_b)

    def test_larger_conductor(self):
        # Structures with entries in Q(i), built in Q(zeta_8): the witness
        # lives in the larger field and the verdicts stay the same.
        big = make_context(2, 8)
        stars = _matrix_witness_set(big) + _more_matrix_witnesses(big)
        for st_a in stars:
            for st_b in stars:
                phi = equivalence_witness(st_a, st_b)
                assert phi.ctx is big
                assert verify_equivalence(phi, st_a, st_b)
                assert n2_search_oracle(st_a, st_b)
                assert n2_polarization_oracle(st_a, st_b)

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
                equivalence_witness(st_a, st_b), st_a, st_b)


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

    # scan verifies no member of the paper's family, because each one is
    # the trivial star after a Hopf automorphism: *_A = *_0 . psi_conj(A)
    # (README, "Why scan lists the paper's family").  Checked on every
    # basis monomial, with the non-real coefficient 2 + i, for the 70 and
    # 25 survivors of a grid of units, a Pythagorean value and a non-unit.
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_family_member_is_trivial_star_after_automorphism(self, n):
        ctx = make_context(n)
        grid = [parse_scalar(t, ctx) for t in "0,1,-1,i,-i,3/5+4/5*i,2".split(",")]
        survivors = scan_star_candidates(ctx, grid=grid)
        assert len(survivors) == (70 if n == 2 else 25)
        trivial = make_star_diag(ctx, ctx.one, ctx.one)
        coeff = parse_scalar("2+i", ctx)
        for st in survivors:
            psi = make_automorphism(ctx, [a.conjugate() for a in st.matrix])
            for mono in basis(ctx):
                e = Element(ctx, {mono: coeff})
                assert apply_map(st, e) == apply_map(trivial, apply_map(psi, e))

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
        (2, "0,3/5,4/5,-3/5,-4/5"),
        (4, "1,-1,i"),
    ])
    def test_matches_brute_force_oracle(self, n, grid):
        ctx = make_context(n)
        if grid is not None:
            grid = [parse_scalar(t, ctx) for t in grid.split(",")]
        got = scan_star_candidates(ctx, grid=grid)
        want = scan_oracle(ctx, grid=grid)
        assert [(st.g_img, st.x_img, st.y_img) for st in got] \
            == [(st.g_img, st.x_img, st.y_img) for st in want]

    # The default grids at m = 4, 8 and 24 (25 values), grids with
    # Pythagorean values, and grids without 0, where a12 is never 0.
    @pytest.mark.parametrize("m, grid", [
        (4, None),
        (8, None),
        (24, None),
        (4, "0,3/5,4/5,-3/5,-4/5,i,1"),
        (12, "0,1,z,z^5,3/5-4/5*i,2,-i,1/2"),
        (4, "1,2,-3,-2,i,-i,3/5+4/5*i"),
        (4, "1,-1,i,-i,3/5+4/5*i,1/2"),
    ])
    def test_n2_listing_matches_the_k4_filter(self, m, grid):
        ctx = make_context(2, m)
        if grid is None:
            grid = [ctx.zeta(k) for k in range(m)] + [ctx.zero]
        else:
            grid = [parse_scalar(t, ctx) for t in grid.split(",")]
        assert_listing_is_the_k4_filter(ctx, grid, grid)

    # Above n = 2 the off-diagonal entries are 0 alone: the listing is the
    # units times the units, which a grid without 0 does not reach.
    @pytest.mark.parametrize("n, grid", [
        (3, None),
        (4, None),
        (5, None),
        (3, "0,3/5,4/5,-3/5,-4/5,i,1"),
        (4, "0,1,z,3/5-4/5*i,2,-i,1/2"),
        (5, "0,i,1+i,-4/5+3/5*i,w,w^2"),
        (5, "1,2,-3,i,-i,3/5+4/5*i"),
    ])
    def test_listing_above_n2_matches_the_k4_filter(self, n, grid):
        ctx = make_context(n)
        if grid is None:
            grid = [ctx.zeta(k) for k in range(ctx.m)] + [ctx.zero]
        else:
            grid = [parse_scalar(t, ctx) for t in grid.split(",")]
        assert_listing_is_the_k4_filter(ctx, grid, [c for c in grid if not c])

    # Each grid value is conjugated once, and its gap 1 - conj(c) c and its
    # scaled row conj(c) c' taken once; then each pair (a11, a12), a12 != 0,
    # takes one product, and so does each unit a11 with a21 != 0.  The
    # one candidate family_defect judges, the swap, is counted apart: it
    # conjugates its four entries once each.
    def test_n2_listing_conjugates_each_value_once(self, monkeypatch):
        ctx = make_context(2)
        k = 60
        grid = [ctx.from_int(t) for t in range(k)]
        counts, judged, judging = {"conjugate": 0, "__mul__": 0}, [0], []
        for name in counts:
            def counted(*args, _f=getattr(CyclotomicScalar, name), _name=name):
                counts[_name] += not judging
                judged[0] += bool(judging) and _name == "conjugate"
                return _f(*args)
            monkeypatch.setattr(CyclotomicScalar, name, counted)

        def judge(*args, _f=radford.classify.family_defect):
            judging.append(args)
            try:
                return _f(*args)
            finally:
                judging.pop()

        monkeypatch.setattr(radford.classify, "family_defect", judge)
        assert len(scan_star_candidates(ctx, grid=grid)) == 2
        assert counts["conjugate"] == k
        assert judged[0] == 4
        assert counts["__mul__"] <= 2 * k * k + 2 * k

    # Under one call's budget of work: at n = 2 the k^2 listing lookups
    # on the integers, where 1 is the only norm-one value, and at n = 3 the
    # k^2 members on 0 and the Cayley transforms (1 + t i)/(1 - t i).
    @pytest.mark.parametrize("n, size", [(2, 419), (3, 400)])
    def test_oversized_grid_is_refused_before_screening(self, n, size):
        ctx = make_context(n)
        grid = [ctx.from_int(t) for t in range(size)]
        if n == 3:
            grid = [ctx.zero] + [(ctx.one + t * ctx.i()) / (ctx.one - t * ctx.i())
                                 for t in grid]
        assert sum(c.is_norm_one() for c in grid) == (1 if n == 2 else size)
        with metered(), pytest.raises(KernelError, match="units of work"):
            scan_star_candidates(ctx, grid=grid)

    @pytest.mark.parametrize("n", [12, 102, 1020])
    def test_400_structures_at_m_1020_are_admitted(self, n, capsys):
        # Built and printed in about 0.1 s, and 0.2 s with --json.
        grid = ",".join(["0"] + [f"z^{k}" for k in range(1000, 1020)])
        for flags in ([], ["--json"]):
            assert main(["--n", str(n), "--m", "1020", *flags, "scan", "--grid", grid]) == 0
        assert capsys.readouterr().out.startswith("survivors 400\n")

    def test_listed_n2_structures_count_before_verification(self):
        # 0 and the 76th roots of unity: the 77^2 listing lookups and the
        # 17 404 matrices with conj(A) A = I they find take more than one
        # call's budget of work.
        with metered(), pytest.raises(KernelError, match="units of work"):
            scan_star_candidates(make_context(2, 76))

    # The same field element twice, written alike or differently (z^6 = -1
    # at m = 12, z = i at m = 4): every repeat multiplies the survivors.
    @pytest.mark.parametrize("n, m, grid", [
        (3, None, "0,1,0"),
        (3, 12, "0,-1,z^6"),
        (2, None, "0,i,z"),
    ])
    def test_repeated_grid_value_is_refused(self, n, m, grid):
        ctx = make_context(n, m)
        grid = [parse_scalar(t, ctx) for t in grid.split(",")]
        with pytest.raises(KernelError, match="repeats a value"):
            scan_star_candidates(ctx, grid=grid)


class TestOneContext:
    """Every argument of a call shares one context; nothing is embedded."""

    def setup_method(self):
        self.small, self.big = make_context(2), make_context(2, 8)
        self.st_small = _matrix_witness_set(self.small)[2]
        self.st_big = _matrix_witness_set(self.big)[2]
        self.phi_big = make_automorphism(
            self.big, (self.big.zero, self.big.one, self.big.one, self.big.zero))

    def test_equivalence_witness(self):
        with pytest.raises(ContextMismatchError):
            equivalence_witness(self.st_small, self.st_big)
        with pytest.raises(ContextMismatchError):
            equivalence_witness(self.st_big, self.st_small)

    def test_verify_equivalence(self):
        with pytest.raises(ContextMismatchError):
            verify_equivalence(self.phi_big, self.st_small, self.st_big)
        with pytest.raises(ContextMismatchError):
            verify_equivalence(self.phi_big, self.st_big, self.st_small)

    def test_apply_automorphism(self):
        with pytest.raises(ContextMismatchError):
            apply_map(self.phi_big, Element.monomial(self.small, 0, 1, 0))
