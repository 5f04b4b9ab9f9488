"""Generator-level certificates against the basis-wide oracles.

The verifiers decide each law from the six relation pairs and the
generators g, x, y; ``oracles`` decides it from every basis monomial and
pair.  For small n the two must agree check for check, on passing and on
failing inputs, including a coproduct or antipode patched into the names
the verifier reads them through.  A coproduct that is no multiplicative
extension fails the relation certificate, which is an error, not a
verdict.  A star whose images break a relation pair is reported on
antimultiplicativity and the counit conjugation only.
"""

import json
import re
import subprocess
import sys
from fractions import Fraction
from functools import partial
from operator import mul

import pytest

from oracles import antipode_order_oracle, basis, delta_oracle, equivalence_oracle, \
    failed_names, generators, hopf_oracle, inject_coproduct, make_star_diag, \
    make_star_matrix, map_oracle, named_check, relation_pair_oracle, star_json, \
    star_oracle, verify_equivalence, x_primitive_delta
from radford import algebra, coalgebra, jsonio
from radford.algebra import Element, Monomial
from radford.classify import (
    equivalence_witness,
    make_automorphism,
    scan_star_candidates,
)
from radford.coalgebra import TensorElement, antipode, antipode_order, counit, delta, \
    tensor_mul
from radford.errors import InvalidStarStructureError, KernelError
from radford.scalars import make_context
from radford.star import (
    GeneratorMap,
    _scalar_map,
    apply_map,
    verify_hopf_axioms,
    verify_star_axioms,
)


def verdicts(report):
    return {c.name: c.passed for c in report.checks}


def tensor_flip(t):
    """Swap the two legs."""
    return TensorElement(t.ctx, {(b, a): c for (a, b), c in t.terms.items()})


def test_tensor_flip():
    ctx = make_context(3)
    x, g = Monomial(0, 1, 0), Monomial(0, 0, 1)
    t = TensorElement(ctx, {(x, g): ctx.one})
    assert tensor_flip(t) == TensorElement(ctx, {(g, x): ctx.one})


def co_opposite_delta(e):
    """Flipped coproduct: multiplicative and coassociative, but S is not
    its antipode, so only the antipode law fails."""
    return tensor_flip(delta(e))


def unsigned_antipode(e):
    """S with the sign (-1)^(r+s) dropped."""
    return antipode(Element(e.ctx, {b: -c if (b.r + b.s) % 2 else c
                                    for b, c in e.terms.items()}))


def matrix_witnesses(ctx):
    half = ctx.from_fraction(Fraction(1, 2))
    return [
        make_star_matrix(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one)),
        make_star_matrix(ctx, (ctx.zero, ctx.one, ctx.one, ctx.zero)),
        make_star_matrix(ctx, (ctx.i(), ctx.zero, ctx.zero, -ctx.i())),
        make_star_matrix(ctx, (ctx.zero, ctx.from_int(2), half, ctx.zero)),
    ]


def raw_candidates(ctx):
    """Candidates that between them fail each of the five star checks."""
    one = Element.one(ctx)
    g = Element.monomial(ctx, 0, 0, 1)
    g2 = Element.monomial(ctx, 0, 0, 2)
    x = Element.monomial(ctx, 0, 1, 0)
    y = Element.monomial(ctx, 1, 0, 0)
    return [
        GeneratorMap(ctx, g, x.scale(ctx.from_int(2)), y),  # scaled x
        GeneratorMap(ctx, g, y, x),                          # x/y swap
        GeneratorMap(ctx, g2, one - g2, one - g2),           # the g^2 candidate
        GeneratorMap(ctx, g, x + one - g, y),                # x* = x + (1 - g)
        GeneratorMap(ctx, g2, x, y),                         # g* = g^2
        GeneratorMap(ctx, g, x + one, y),                    # x* = x + 1
        GeneratorMap(ctx, g2, x.scale(ctx.zero), x),         # x* = 0, y* = x
        GeneratorMap(ctx, -g, x, y),                         # g* = -g
    ]


def generator_maps(ctx):
    """A diagonal map, a map mixing x and y (n = 2 only) and one with no
    matrix, each as a star and as an automorphism; the last one's images
    break relation pairs."""
    g, x, y = generators(ctx)
    one, i = ctx.one, ctx.i()
    a = (ctx.from_int(3) + ctx.from_int(4) * i) * ctx.from_fraction(Fraction(1, 5))
    maps = [make_star_diag(ctx, ctx.zeta(1), a),
            make_automorphism(ctx, (ctx.from_int(2), ctx.zero, ctx.zero,
                                    one + ctx.zeta(1)))]
    if ctx.n == 2:
        maps += [make_star_matrix(ctx, (ctx.zero, one + i,
                                        (one + i) * ctx.from_fraction(Fraction(1, 2)),
                                        ctx.zero)),
                 make_automorphism(ctx, (one, i, ctx.from_int(2), ctx.zero))]
    raw = (g * g + x.scale(a), x + y.scale(ctx.zeta(1)) + g, y * x + Element.one(ctx) - g)
    return maps + [GeneratorMap(ctx, *raw),
                   GeneratorMap(ctx, *raw, is_star=False)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_map_extension_matches_oracle(n):
    # The oracle multiplies the images letter by letter along each word; a
    # coefficient 2 + i tells conjugate-linear from linear.
    ctx = make_context(n)
    maps = generator_maps(ctx)
    assert len(maps) == (6 if n == 2 else 4)
    shapes = {("none" if f.matrix is None else "mix" if f.matrix[1] or f.matrix[2]
               else "diag", f.is_star) for f in maps}
    assert len(shapes) == len(maps)
    c = ctx.from_int(2) + ctx.i()
    for f in maps:
        for b in basis(ctx):
            e = Element(ctx, {b: c})
            assert apply_map(f, e) == map_oracle(f, e), (f, b)


@pytest.mark.parametrize("n", [3, 4])
def test_counit_conjugate_counterexample_is_the_first_on_the_basis(n):
    # counit_conjugate runs on g, x, y even when * is not
    # antimultiplicative; its verdict and counterexample are those of the
    # scan over every basis monomial in (r, s, l) order.
    ctx = make_context(n)
    g, x, y = generators(ctx)
    one = Element.one(ctx)
    extra = [GeneratorMap(ctx, g, x + y, y),
             GeneratorMap(ctx, g, x, y + one.scale(ctx.from_int(2))),
             GeneratorMap(ctx, g.scale(ctx.zeta(1)), x + one, y)]
    outcomes = set()
    for st in raw_candidates(ctx) + extra:
        first = None
        for b in basis(ctx):
            e = Element.monomial(ctx, *b)
            lhs = Element.from_scalar(ctx, counit(apply_map(st, e)))
            rhs = Element.from_scalar(ctx, counit(e).conjugate())
            if lhs != rhs:
                first = (("monomial", b), lhs, rhs)
                break
        report = verify_star_axioms(st)
        check = named_check(report, "counit_conjugate")
        assert check.passed is (first is None)
        assert (None if first is None else tuple(check.counterexample)) == first
        outcomes.add((named_check(report, "antimultiplicative").passed, check.passed))
    assert (False, False) in outcomes and (False, True) in outcomes


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hopf_certificate_matches_oracle(n):
    ctx = make_context(n)
    assert verdicts(verify_hopf_axioms(ctx)) == hopf_oracle(ctx)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("delta_fn", [x_primitive_delta, co_opposite_delta])
def test_injected_coproduct_matches_oracle(n, delta_fn, monkeypatch):
    # The co-opposite D is multiplicative, so the verifier judges it on
    # g, x, y as the oracle judges the basis: only the antipode law fails,
    # at x.  D(x) = x (x) 1 + 1 (x) x is not, so the certificate refuses it
    # at the relation pair (g, x), where the oracle finds D not multiplicative.
    ctx = make_context(n)
    want = hopf_oracle(ctx, delta_fn)
    inject_coproduct(monkeypatch, delta_fn)
    if not want["delta_multiplicative"]:
        with pytest.raises(KernelError, match=re.escape(
                "delta_multiplicative at (y^0*x^0*g^1, y^0*x^1*g^0)")):
            verify_hopf_axioms(ctx)
        return
    report = verify_hopf_axioms(ctx)
    assert verdicts(report) == want
    assert failed_names(report) == ["antipode_law"]
    assert named_check(report, "antipode_law").counterexample.location \
        == ("monomial", Monomial(0, 1, 0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unsigned_antipode_fails_the_antipode_law_at_x(n, monkeypatch):
    # S with the sign (-1)^(r+s) dropped is S composed with the automorphism
    # x -> -x, y -> -y: antimultiplicative, so it passes the certificate,
    # but (S * id)(x) = 2x != e(x).
    ctx = make_context(n)
    monkeypatch.setattr("radford.coalgebra.antipode", unsigned_antipode)
    report = verify_hopf_axioms(ctx)
    assert failed_names(report) == ["antipode_law"]
    ce = named_check(report, "antipode_law").counterexample
    x = Element.monomial(ctx, 0, 1, 0)
    assert (ce.location, ce.lhs) == (("monomial", Monomial(0, 1, 0)), x + x)


def product_laws(ctx):
    """(name, f, mul, anti) for each map whose products the suite checks on
    the relation pairs: D, e and S, the injected coproducts and antipode,
    and every star and automorphism these tests build, with the family
    stars of a small scan and their witnesses."""
    laws = [("D", delta, tensor_mul, False),
            ("e", _scalar_map(ctx, counit), mul, False),
            ("S", antipode, mul, True),
            ("co-opposite D", co_opposite_delta, tensor_mul, False),
            ("x-primitive D", x_primitive_delta, tensor_mul, False),
            ("unsigned S", unsigned_antipode, mul, True)]
    trivial = make_star_diag(ctx, ctx.one, ctx.one)
    family = scan_star_candidates(ctx, [ctx.zero, ctx.one, -ctx.one, ctx.zeta(1)])
    maps = [*generator_maps(ctx), *family,
            *(equivalence_witness(st, trivial) for st in family)]
    maps += matrix_witnesses(ctx) if ctx.n == 2 else raw_candidates(ctx)
    return laws + [(f"map {i}", partial(apply_map, f), mul, f.is_star)
                   for i, f in enumerate(maps)]


@pytest.mark.parametrize("n", range(2, 9))
def test_relation_pairs_match_the_product_reference(n, monkeypatch):
    # The q-binomial theorem settles the power pairs of every map here that
    # reaches them; the first failing pair and both its sides are the
    # reference's.  The fallback has its own test below.
    ctx = make_context(n)
    settled = []
    nilpotent = algebra._nilpotent
    monkeypatch.setattr(algebra, "_nilpotent",
                        lambda *args: settled.append(nilpotent(*args)) or settled[-1])
    verdicts = set()
    for name, f, product, anti in product_laws(ctx):
        ce = algebra._relation_counterexample(ctx, f, product, anti)
        assert ce == relation_pair_oracle(ctx, f, product, anti), name
        verdicts.add(ce is None)
    assert verdicts == {True, False}
    assert settled and all(settled)


def twisted_delta(e):
    """The multiplicative extension of D(x) = x (x) g^2 + 1 (x) x."""
    ctx = e.ctx
    x, g2, one = Monomial(0, 1, 0), Monomial(0, 0, 2), Monomial(0, 0, 0)
    dx = TensorElement(ctx, {(x, g2): ctx.one, (one, x): ctx.one})
    acc = TensorElement.zero(ctx)
    for mono, c in e.terms.items():
        acc = acc + delta_oracle(ctx, mono, dx).scale(c)
    return acc


def twisted_law(ctx):
    # x (x) g^2 and 1 (x) x q-commute with q = w^2, of order 2 at n = 4, and
    # C(4, 2)_q = 2 at q = -1, so D(x)^4 = 2 x^2 (x) x^2 != 0.
    return twisted_delta, tensor_mul


def three_term_law(ctx):
    # x + y + yx squares to xy + yx = 0 at n = 2.
    g, x, y = generators(ctx)
    phi = GeneratorMap(ctx, g, x + y + y * x, y, is_star=False)
    return partial(apply_map, phi), mul


def unit_power_law(ctx):
    # g and x q-commute with q = w, but g^n = 1, so (g + x)^n = 1 != 0.
    g, x, y = generators(ctx)
    return partial(apply_map, GeneratorMap(ctx, g, g + x, y, is_star=False)), mul


@pytest.mark.parametrize("n, law, fails", [(4, twisted_law, True),
                                           (2, three_term_law, False),
                                           (3, unit_power_law, True)])
def test_power_pairs_fall_back_to_the_product(n, law, fails, monkeypatch):
    # Only the two power pairs, so that the kernel reaches them.
    ctx = make_context(n)
    f, product = law(ctx)
    pairs = algebra.relation_pairs(ctx)[4:]
    monkeypatch.setattr(algebra, "relation_pairs", lambda ctx: pairs)
    x = Element.monomial(ctx, 0, 1, 0)
    assert not algebra._nilpotent(ctx, f(x), product)
    ce = algebra._relation_counterexample(ctx, f, product)
    assert ce == relation_pair_oracle(ctx, f, product, pairs=pairs)
    assert (ce is not None) is fails
    if fails:
        assert ce.location == ("pair", pairs[0])


def test_hopf_at_n_1024_forms_no_top_row_coproduct(monkeypatch):
    ctx = make_context(1024)
    closed = coalgebra.delta_closed
    seen = []
    monkeypatch.setattr(coalgebra, "delta_closed",
                        lambda c, mono: seen.append(mono) or closed(c, mono))
    assert verify_hopf_axioms(ctx).all_passed
    assert seen and all(r < ctx.n - 1 and s < ctx.n - 1 for r, s, _ in seen)


def test_star_at_n_128_raises_no_image_to_a_power(monkeypatch):
    ctx = make_context(128)
    st = make_star_diag(ctx, ctx.zeta(3), ctx.zeta(5))
    power = Element.__pow__
    raised = []

    def spy(e, k):
        if k >= 2 and e in (st.x_img, st.y_img):
            raised.append(k)
        return power(e, k)

    monkeypatch.setattr(Element, "__pow__", spy)
    assert verify_star_axioms(st).all_passed
    assert raised == []


@pytest.mark.parametrize("n", [2, 3])
def test_every_root_of_unity_diag_matches_oracle(n):
    ctx = make_context(n)
    for j in range(ctx.m):
        for k in range(ctx.m):
            st = make_star_diag(ctx, ctx.zeta(j), ctx.zeta(k))
            assert verdicts(verify_star_axioms(st)) == star_oracle(st), (j, k)


def test_matrix_witnesses_match_oracle():
    for st in matrix_witnesses(make_context(2)):
        assert verdicts(verify_star_axioms(st)) == star_oracle(st), st.matrix


def test_raw_candidates_match_oracle():
    # A candidate that breaks a relation pair has no star map to judge, so
    # its report holds antimultiplicative and counit_conjugate only.
    failed = set()
    for n in (3, 4):
        ctx = make_context(n)
        for i, st in enumerate(raw_candidates(ctx)):
            report = verify_star_axioms(st)
            oracle = star_oracle(st)
            assert verdicts(report) == {c.name: oracle[c.name]
                                        for c in report.checks}, (n, i)
            if not named_check(report, "antimultiplicative").passed:
                assert [c.name for c in report.checks] == [
                    "antimultiplicative", "counit_conjugate"], (n, i)
            failed.update(failed_names(report))
    assert failed == {"involution", "antimultiplicative", "delta_compatible",
                      "antipode_compatible", "counit_conjugate"}


def test_antimultiplicative_counterexample_is_a_relation_pair():
    ctx = make_context(3)
    g = Element.monomial(ctx, 0, 0, 1)
    swap = GeneratorMap(ctx, g, Element.monomial(ctx, 1, 0, 0),
                        Element.monomial(ctx, 0, 1, 0))
    ce = named_check(verify_star_axioms(swap), "antimultiplicative").counterexample
    assert ce.location == ("pair", (Monomial(0, 0, 1), Monomial(0, 1, 0)))


def test_diag_witnesses_match_oracle_n3():
    ctx = make_context(3)
    trivial = make_star_diag(ctx, ctx.one, ctx.one)
    for j in range(ctx.m):
        for k in range(ctx.m):
            st = make_star_diag(ctx, ctx.zeta(j), ctx.zeta(k))
            phi = equivalence_witness(st, trivial)
            for a, b in ((st, trivial), (trivial, st)):
                assert verify_equivalence(phi, a, b) \
                    == equivalence_oracle(phi, a, b), (j, k)


def test_n2_witnesses_match_oracle():
    stars = matrix_witnesses(make_context(2))
    for st_a in stars:
        for st_b in stars:
            phi = equivalence_witness(st_a, st_b)
            for a, b in ((st_a, st_b), (st_b, st_a)):
                assert verify_equivalence(phi, a, b) \
                    == equivalence_oracle(phi, a, b)


def test_equivalence_refuses_non_antimultiplicative_stars():
    # The swap images break the pair (g, x): they extend to no star map,
    # so there is nothing for phi to carry, on either side.
    ctx = make_context(3)
    g = Element.monomial(ctx, 0, 0, 1)
    swap = GeneratorMap(ctx, g, Element.monomial(ctx, 1, 0, 0),
                        Element.monomial(ctx, 0, 1, 0))
    trivial = make_star_diag(ctx, ctx.one, ctx.one)
    phi = make_automorphism(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one))
    for a, b in ((swap, swap), (swap, trivial), (trivial, swap)):
        with pytest.raises(InvalidStarStructureError,
                           match=r"^not a star structure: FAIL antimultiplicative "
                                 r"at \(y\^0\*x\^0\*g\^1, "):
            verify_equivalence(phi, a, b)
    # A raw star that passes the verifier is compared on g, x, y.
    assert verify_equivalence(phi, GeneratorMap(ctx, *generators(ctx)), trivial)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_antipode_order_matches_brute_force(n):
    ctx = make_context(n)
    assert antipode_order(ctx) == antipode_order_oracle(ctx) == 2 * n


def run_cli(*args, timeout=60):
    return subprocess.run([sys.executable, "-m", "radford", *args],
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("n", [8, 12])
def test_verify_hopf_large_n(n):
    proc = run_cli("--n", str(n), "--json", "verify", "hopf")
    assert proc.returncode == 0, proc.stderr
    assert all(c["pass"] for c in json.loads(proc.stdout)["checks"])


@pytest.mark.parametrize("n", [8, 12])
def test_verify_star_large_n(n, tmp_path):
    ctx = make_context(n)
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(star_json(
        make_star_diag(ctx, ctx.zeta(1), ctx.zeta(3)), "diag")))
    proc = run_cli("--n", str(n), "verify", "star", "--star", str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


@pytest.mark.parametrize("n", [12, 16, 1024])
def test_antipode_order_large_n(n):
    proc = run_cli("--n", str(n), "antipode-order", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(2 * n)


def test_solve_skew_large_n():
    proc = run_cli("--n", "1024", "solve", "skew", "--w", "1", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["dimension 3", "(-1) + g", "x", "y"]


def test_grouplike_large_n():
    # One coproduct of y^254 x^254 has 255^2 terms; the verdict needs none.
    proc = run_cli("--n", "255", "grouplike", "1+y^254*x^254", timeout=10)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.strip() == "false"


def test_verify_star_raw_large_n(tmp_path):
    # The swap g* = g^-1, x* = y, y* = x breaks the pair (x, y), and
    # x* = x + y the pair (g, x), so no check runs on the n^3 basis
    # monomials.
    ctx = make_context(1024)
    g, x, y = generators(ctx)
    path = tmp_path / "raw.json"
    for st, pair in ((GeneratorMap(ctx, g ** 1023, y, x), "y^0*x^1*g^0, y^1*x^0*g^0"),
                     (GeneratorMap(ctx, g, x + y, y), "y^0*x^0*g^1, y^0*x^1*g^0")):
        path.write_text(json.dumps(jsonio.star_to_json(st)))
        proc = run_cli("--n", "1024", "verify", "star", "--star", str(path),
                       timeout=10)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.splitlines() == [
            f"FAIL antimultiplicative at ({pair})", "PASS counit_conjugate"]


def test_star_apply_refuses_non_antimultiplicative_raw_star(tmp_path):
    # The swap g* = g^-1, x* = y, y* = x breaks the pair (x, y).  At n = 8
    # extending it along the words y^r x^s g^l sends x*y to (-z^3)*y*x,
    # along g^l x^s y^r to (z)*y*x: the images define no *.
    ctx = make_context(1024)
    g, x, y = generators(ctx)
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(jsonio.star_to_json(GeneratorMap(ctx, g ** 1023, y, x))))
    proc = run_cli("--n", "1024", "star-apply", "--star", str(path), "x*y", timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: not a star structure: FAIL antimultiplicative "
                           "at (y^0*x^1*g^0, y^1*x^0*g^0)\n")
