"""Star structures: construction, application, and the axiom verifier."""

import re
from fractions import Fraction

import pytest

from oracles import basis, count_calls, failed_names, generators, inject_coproduct, \
    make_star_diag, make_star_matrix, named_check, x_primitive_delta
from radford.algebra import Element, Monomial
from radford.coalgebra import delta, tensor_map, tensor_mul
from radford.errors import ContextMismatchError, InvalidStarStructureError, KernelError
from radford import classify, star
from radford.classify import scan_star_candidates
from radford.scalars import make_context
from radford.star import (
    GeneratorMap,
    apply_map,
    family_defect,
    verify_hopf_axioms,
    verify_star_axioms,
)


class TestConstruction:
    def test_trivial_diag_valid(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.one, ctx.one)
        assert st == GeneratorMap(ctx, *generators(ctx))
        assert st.matrix == (ctx.one, ctx.zero, ctx.zero, ctx.one)

    def test_root_of_unity_diag_valid(self):
        ctx = make_context(3)
        make_star_diag(ctx, ctx.omega(), ctx.from_int(-1))

    def test_norm_violation_rejected(self):
        # |alpha| != 1 shows at entry (1,1) of conj(A)A, |beta| != 1 at (2,2).
        ctx = make_context(3)
        zero, one, two = ctx.zero, ctx.one, ctx.from_int(2)
        assert family_defect(ctx, (two, zero, zero, one)) \
            == "conj(A)A differs from I2 at entry (1,1)"
        assert family_defect(ctx, (one, zero, zero, two)) \
            == "conj(A)A differs from I2 at entry (2,2)"

    def test_identity_matrix_valid(self):
        ctx = make_context(2)
        make_star_matrix(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one))

    def test_non_unitary_but_involutive_matrix_valid(self):
        ctx = make_context(2)
        make_star_matrix(
            ctx,
            (ctx.zero, ctx.from_int(2), ctx.from_fraction(Fraction(1, 2)),
             ctx.zero),
        )

    def test_shear_matrix_rejected_with_entry(self):
        ctx = make_context(2)
        assert family_defect(ctx, (ctx.one, ctx.one, ctx.zero, ctx.one)) \
            == "conj(A)A differs from I2 at entry (1,2)"

    def test_matrix_kind_needs_n2(self):
        # A diagonal matrix is a star at every n; one that mixes x and y
        # only at n = 2.
        ctx = make_context(3)
        st = make_star_matrix(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one))
        assert st == make_star_diag(ctx, ctx.one, ctx.one)
        assert family_defect(ctx, (ctx.zero, ctx.one, ctx.one, ctx.zero)) \
            == "x* and y* mix x and y, which needs n = 2, got n = 3"

    def test_matrix_is_read_off_the_images(self):
        ctx = make_context(2)
        g, x, y = generators(ctx)
        two, one = ctx.from_int(2), Element.one(ctx)
        assert GeneratorMap(ctx, g, y.scale(two), x + y).matrix \
            == (ctx.zero, two, ctx.one, ctx.one)
        assert GeneratorMap(ctx, g, Element.zero(ctx), y).matrix \
            == (ctx.zero, ctx.zero, ctx.zero, ctx.one)
        # Images outside span(x, y), or g* != g, have no matrix.
        for images in ((one, x, y), (g.scale(two), x, y), (g, x + one, y),
                       (g, x, y * g), (g, x, y * x)):
            assert GeneratorMap(ctx, *images).matrix is None


class TestApplyStar:
    def test_xg_image_under_diag(self):
        ctx = make_context(3)
        g, x, y = generators(ctx)
        alpha = ctx.omega()
        st = make_star_diag(ctx, alpha, ctx.one)
        assert apply_map(st, x * g) == (x * g).scale(alpha * ctx.omega(-1))

    def test_matrix_star_swaps_with_scale(self):
        ctx = make_context(2)
        st = make_star_matrix(
            ctx,
            (ctx.zero, ctx.from_int(2), ctx.from_fraction(Fraction(1, 2)),
             ctx.zero),
        )
        x = Element.monomial(ctx, 0, 1, 0)
        first = apply_map(st, x)
        assert first == Element.monomial(ctx, 1, 0, 0, ctx.from_int(2))
        assert apply_map(st, first) == x

    def test_scalars_are_conjugated(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.one, ctx.one)
        e = Element.from_scalar(ctx, ctx.i())
        assert apply_map(st, e) == Element.from_scalar(ctx, -ctx.i())

    def test_double_application_is_identity_on_basis(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.omega(2), ctx.zeta(5))
        for b in basis(ctx):
            eb = Element(ctx, {b: ctx.one})
            assert apply_map(st, apply_map(st, eb)) == eb

    def test_images_satisfy_transported_relations(self):
        # Applying the star to both sides of xg = w gx gives
        # g* x* = conj(w) x* g*, and similarly for the other relations.
        ctx = make_context(4)
        st = make_star_diag(ctx, ctx.i(), ctx.omega())
        gs, xs, ys = st.g_img, st.x_img, st.y_img
        wbar = ctx.omega().conjugate()
        assert gs * xs == (xs * gs).scale(wbar)
        assert ys * gs == (gs * ys).scale(wbar)
        assert ys * xs == (xs * ys).scale(wbar)

    def test_star_composed_with_star_is_algebra_endomorphism(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.omega(), ctx.zeta(2))

        def twice(e):
            return apply_map(st, apply_map(st, e))

        for a in basis(ctx):
            ea = Element(ctx, {a: ctx.one})
            for b in basis(ctx):
                eb = Element(ctx, {b: ctx.one})
                assert twice(ea * eb) == twice(ea) * twice(eb)


def _matrix_shaped(ctx):
    """The matrices of the matrix-shaped maps the suite builds, as stars:
    the diagonal and n = 2 structures, the automorphisms of
    ``test_certificates.generator_maps``, and three outside the family: a
    shear, |alpha| = 2, and, at n > 2, every one that mixes x and y."""
    one, zero, i, z = ctx.one, ctx.zero, ctx.i(), ctx.zeta(1)
    half = ctx.from_fraction(Fraction(1, 2))
    pyth = (ctx.from_int(3) + ctx.from_int(4) * i) * ctx.from_fraction(Fraction(1, 5))
    two = ctx.from_int(2)
    return [
        (one, zero, zero, one), (ctx.omega(), zero, zero, ctx.omega(-1)),
        (i, zero, zero, -one), (z, zero, zero, pyth), (pyth, zero, zero, one),
        (zero, one, one, zero), (i, zero, zero, -i), (zero, two, half, zero),
        (zero, i, i, zero), (zero, one + i, (one + i) * half, zero),
        (one, two * i, zero, one), (one, zero, i, one),
        (two, zero, zero, one + z), (one, i, two, zero),
        (one, one, zero, one), (two, zero, zero, one),
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_family_defect_decides_the_verifier(n):
    # The paper's family is exactly the matrix-shaped stars that pass the
    # verifier; require_star admits a member without verifying it and
    # names the first failing check of anything else.
    ctx = make_context(n)
    verdicts = set()
    for a in _matrix_shaped(ctx):
        st = GeneratorMap.from_matrix(ctx, a)
        report = verify_star_axioms(st)
        in_family = family_defect(ctx, a) is None
        assert in_family == report.all_passed, a
        verdicts.add(in_family)
        if in_family:
            assert star.require_star(st) is None
        else:
            first = next(c for c in report.checks if not c.passed)
            with pytest.raises(InvalidStarStructureError,
                               match=f"^not a star structure: {re.escape(str(first))}$"):
                star.require_star(st)
    assert verdicts == {True, False}


class TestVerifyStarAxioms:
    @pytest.mark.parametrize("n", [2, 3])
    def test_diagonal_roots_of_unity_pass(self, n):
        ctx = make_context(n)
        report = verify_star_axioms(make_star_diag(ctx, ctx.omega(), ctx.omega(-1)))
        assert report.all_passed

    def test_matrix_witnesses_pass(self):
        ctx = make_context(2)
        half = ctx.from_fraction(Fraction(1, 2))
        witnesses = [
            (ctx.one, ctx.zero, ctx.zero, ctx.one),
            (ctx.zero, ctx.one, ctx.one, ctx.zero),
            (ctx.i(), ctx.zero, ctx.zero, -ctx.i()),
            (ctx.zero, ctx.from_int(2), half, ctx.zero),
            (ctx.zero, ctx.i(), ctx.i(), ctx.zero),
        ]
        for entries in witnesses:
            report = verify_star_axioms(make_star_matrix(ctx, entries))
            assert report.all_passed, entries

    def test_scaled_x_image_breaks_involution_at_x(self):
        ctx = make_context(3)
        st = GeneratorMap(
            ctx,
            Element.monomial(ctx, 0, 0, 1),
            Element.monomial(ctx, 0, 1, 0, ctx.from_int(2)),
            Element.monomial(ctx, 1, 0, 0),
        )
        report = verify_star_axioms(st)
        assert not report.all_passed
        inv = named_check(report, "involution")
        assert not inv.passed
        assert inv.counterexample.location == ("monomial", Monomial(0, 1, 0))
        # (x*)* = 4x
        assert inv.counterexample.lhs \
            == Element.monomial(ctx, 0, 1, 0, ctx.from_int(4))

    def test_g_squared_candidate_fails_some_axiom(self):
        ctx = make_context(3)
        one = Element.one(ctx)
        g2 = Element.monomial(ctx, 0, 0, 2)
        st = GeneratorMap(ctx, g2, one - g2, one - g2)
        report = verify_star_axioms(st)
        failed = failed_names(report)
        assert failed
        for name in failed:
            assert named_check(report, name).counterexample is not None

    def test_all_failures_reported_not_just_first(self):
        # y* = 2y respects every relation pair, so all five checks run.
        ctx = make_context(3)
        g, x, y = generators(ctx)
        st = GeneratorMap(ctx, g, x, y.scale(ctx.from_int(2)))
        report = verify_star_axioms(st)
        assert failed_names(report) == ["involution", "antipode_compatible"]

    def test_delta_compatibility_matches_tensor_map_form(self):
        ctx = make_context(3)
        st = make_star_diag(ctx, ctx.one, ctx.one)
        g, x, y = generators(ctx)

        def star(e):
            return apply_map(st, e)

        assert tensor_map(delta(x), star, star) == delta(star(x))


class TestVerifyHopfAxioms:
    @pytest.mark.parametrize("n", [2, 5])
    def test_all_pass(self, n):
        report = verify_hopf_axioms(make_context(n))
        assert report.all_passed
        assert {c.name for c in report.checks} == {
            "coassociativity",
            "counit_law",
            "antipode_law",
            "delta_multiplicative",
            "counit_multiplicative",
        }

    def test_corrupted_coproduct_breaks_multiplicativity_at_x_g(self, monkeypatch):
        # D(x) = x (x) 1 + 1 (x) x is no multiplicative extension, so the
        # certificate fails at the relation pair (g, x): a kernel fault.
        ctx = make_context(3, 12)
        g, x, y = generators(ctx)
        assert x_primitive_delta(g * x) \
            != tensor_mul(x_primitive_delta(g), x_primitive_delta(x))
        inject_coproduct(monkeypatch, x_primitive_delta)
        with pytest.raises(KernelError, match=re.escape(
                "D, e or S fails its relation check: delta_multiplicative "
                "at (y^0*x^0*g^1, y^0*x^1*g^0)")):
            verify_hopf_axioms(ctx)


class TestOneContext:
    def test_apply_star_rejects_another_conductor(self):
        ctx = make_context(3)
        big = make_context(3, 24)
        st = make_star_diag(big, big.omega(), big.one)
        with pytest.raises(ContextMismatchError):
            apply_map(st, Element.monomial(ctx, 0, 1, 0))


class TestHopfCertificateOnce:
    """The Hopf relation certificate is derived once per verifier call, and
    by nothing else."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        """How many certificates have been derived since the test began."""
        return count_calls(monkeypatch, star, "_hopf_certificate")

    def test_scan_derives_none_and_verifies_nothing(self, derivations, monkeypatch):
        # Every member of the paper's family is a star, so scan lists them
        # without a verifier call.  The verifier is replaced in both
        # modules, so a name imported into classify is caught too.
        def refuse(st):
            raise AssertionError("scan called verify_star_axioms")

        monkeypatch.setattr(star, "verify_star_axioms", refuse)
        monkeypatch.setattr(classify, "verify_star_axioms", refuse, raising=False)
        for n in (2, 3):
            ctx = make_context(n, 12)
            survivors = scan_star_candidates(ctx, [ctx.zero, ctx.one, -ctx.one])
            assert len(survivors) == (14 if n == 2 else 4)
        assert derivations() == 0

    def test_each_conductor_derives_its_own(self, derivations):
        # Nothing is shared between calls: one derivation per verifier call.
        for m in (12, 24):
            ctx = make_context(3, m)
            st = make_star_diag(ctx, ctx.one, -ctx.one)
            assert verify_star_axioms(st).all_passed
            assert verify_hopf_axioms(ctx).all_passed
        assert derivations() == 4

    def test_failing_certificate_is_an_error_not_a_basis_check(self, monkeypatch):
        # The closed D, e, S pass their relation checks; a failure would be a
        # kernel fault, so verify star raises instead of running on the basis.
        ctx = make_context(3, 12)
        inject_coproduct(monkeypatch, x_primitive_delta)
        with pytest.raises(KernelError, match="relation check: delta_multiplicative"):
            verify_star_axioms(make_star_diag(ctx, ctx.one, ctx.one))
