"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an equality of exact values (tolerance zero).  Each test
prints a single PASS/FAIL line; run with `pytest -s` to see them live.
"""

import functools
import json
import random
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

from oracles import FieldMatrix, basis, delta_oracle, failed_names, field_nullspace, \
    generators, load_schema, make_star_diag, make_star_matrix, named_check, star_json, \
    verify_equivalence, word_of_monomial
from radford import jsonio
from radford.algebra import (
    Element,
    Monomial,
    rewrite_word,
)
from radford.classify import (
    equivalence_witness,
    make_automorphism,
)
from radford.coalgebra import antipode, antipode_order, delta_closed
from radford.parser import format_element, parse_element
from radford.scalars import make_context
from radford.solver import is_grouplike, skew_primitive_space
from radford.star import (
    GeneratorMap,
    verify_hopf_axioms,
    verify_star_axioms,
)

ALL_N = (2, 3, 4, 5, 6)


def criterion(number, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} [{summary}]: FAIL")
                raise
            print(f"criterion {number:2d} [{summary}]: PASS")
        return wrapper
    return deco


@criterion(1, "Hopf axioms on the whole basis, n = 2..6")
def test_criterion_1_hopf_axioms():
    for n in ALL_N:
        ctx = make_context(n)
        report = verify_hopf_axioms(ctx)
        assert report.all_passed, (n, failed_names(report))


@criterion(2, "antipode order 2n and the square twist")
def test_criterion_2_antipode_order():
    for n in ALL_N:
        ctx = make_context(n)
        assert antipode_order(ctx) == 2 * n
        g, x, y = generators(ctx)
        assert antipode(antipode(x)) == x.scale(ctx.omega(-1))
        assert antipode(antipode(y)) == y.scale(ctx.omega())


@criterion(3, "closed coproduct formula equals the multiplicative one")
def test_criterion_3_delta_closed():
    for n in ALL_N:
        ctx = make_context(n)
        mismatches = [
            b
            for b in basis(ctx)
            if delta_closed(ctx, b) != delta_oracle(ctx, b)
        ]
        assert mismatches == [], (n, mismatches[:3])


@criterion(4, "skew-primitive spaces: dimensions and spans")
def test_criterion_4_skew_primitives():
    for n in ALL_N:
        ctx = make_context(n)
        g, x, y = generators(ctx)
        span = [x, y, Element.one(ctx) - g]
        vectors = skew_primitive_space(ctx, 1)
        assert len(vectors) == 3, n
        monos = basis(ctx)
        for v in vectors:
            rows = [
                [s.coefficient(*b) for s in span] + [v.coefficient(*b)]
                for b in monos
            ]
            kernel = field_nullspace(FieldMatrix(ctx, rows))
            assert any(vec[3] for vec in kernel), (n, format_element(v))
    for n in (3, 4, 5, 6):
        ctx = make_context(n)
        for w in range(2, n):
            vectors = skew_primitive_space(ctx, w)
            assert len(vectors) == 1, (n, w)
            v = vectors[0]
            assert set(v.terms) == {Monomial(0, 0, 0), Monomial(0, 0, w)}
            assert v.terms[Monomial(0, 0, 0)] == -v.terms[Monomial(0, 0, w)]


@criterion(5, "group-likes are exactly the powers of g")
def test_criterion_5_grouplikes():
    for n in ALL_N:
        ctx = make_context(n)
        g, x, y = generators(ctx)
        one = Element.one(ctx)
        for b in basis(ctx):
            expected = b.r == 0 and b.s == 0
            assert is_grouplike(Element(ctx, {b: ctx.one})) is expected, (n, b)
        assert not is_grouplike(one + x)
        assert not is_grouplike(g + y)
        assert not is_grouplike(one - g)


@criterion(6, "star axioms for all diagonal and matrix witnesses")
def test_criterion_6_star_structures():
    for n in ALL_N:
        ctx = make_context(n)
        for j in range(ctx.m):
            alpha = ctx.zeta(j)
            for k in range(ctx.m):
                st = make_star_diag(ctx, alpha, ctx.zeta(k))
                report = verify_star_axioms(st)
                assert report.all_passed, (n, j, k, failed_names(report))
    ctx = make_context(2)
    half = ctx.from_fraction(Fraction(1, 2))
    witness_matrices = [
        (ctx.one, ctx.zero, ctx.zero, ctx.one),
        (ctx.zero, ctx.one, ctx.one, ctx.zero),
        (ctx.i(), ctx.zero, ctx.zero, -ctx.i()),
        (ctx.zero, ctx.from_int(2), half, ctx.zero),
    ]
    for entries in witness_matrices:
        report = verify_star_axioms(make_star_matrix(ctx, entries))
        assert report.all_passed, entries


@criterion(7, "impossible candidates fail a named axiom with a witness")
def test_criterion_7_negative_candidates():
    ctx = make_context(3)
    scaled_x = GeneratorMap(
        ctx,
        Element.monomial(ctx, 0, 0, 1),
        Element.monomial(ctx, 0, 1, 0, ctx.from_int(2)),
        Element.monomial(ctx, 1, 0, 0),
    )
    report = verify_star_axioms(scaled_x)
    assert not report.all_passed
    inv = named_check(report, "involution")
    assert not inv.passed
    kind, at = inv.counterexample.location
    assert kind == "monomial" and at == Monomial(0, 1, 0)

    one = Element.one(ctx)
    g2 = Element.monomial(ctx, 0, 0, 2)
    moved_g = GeneratorMap(ctx, g2, one - g2, one - g2)
    report = verify_star_axioms(moved_g)
    failed = failed_names(report)
    assert failed
    for name in failed:
        ce = named_check(report, name).counterexample
        assert ce is not None
        assert ce.location[0] in ("monomial", "pair")


@criterion(8, "every diagonal structure is equivalent to the trivial one")
def test_criterion_8_diag_witnesses():
    for n in (3, 4, 6):
        ctx = make_context(n)
        trivial = make_star_diag(ctx, ctx.one, ctx.one)
        for j in range(ctx.m):
            for k in range(ctx.m):
                st = make_star_diag(ctx, ctx.zeta(j), ctx.zeta(k))
                phi = equivalence_witness(st, trivial)
                assert verify_equivalence(phi, st, trivial), (n, j, k)


@criterion(9, "matrix criterion: hand witness and solver agree")
def test_criterion_9_matrix_equivalence():
    ctx = make_context(2)
    st_i = make_star_matrix(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one))
    st_d = make_star_matrix(ctx, (ctx.i(), ctx.zero, ctx.zero, -ctx.i()))
    hand = make_automorphism(
        ctx, (ctx.one + ctx.i(), ctx.zero, ctx.zero, ctx.one - ctx.i())
    )
    assert verify_equivalence(hand, st_i, st_d)

    assert verify_equivalence(equivalence_witness(st_i, st_d), st_i, st_d)

    half = ctx.from_fraction(Fraction(1, 2))
    witness_set = [
        make_star_matrix(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one)),
        make_star_matrix(ctx, (ctx.zero, ctx.one, ctx.one, ctx.zero)),
        make_star_matrix(ctx, (ctx.i(), ctx.zero, ctx.zero, -ctx.i())),
        make_star_matrix(ctx, (ctx.zero, ctx.from_int(2), half, ctx.zero)),
    ]
    for st_a in witness_set:
        for st_b in witness_set:
            assert verify_equivalence(equivalence_witness(st_a, st_b), st_a, st_b)


@criterion(10, "closed product formula equals the rewriting oracle")
def test_criterion_10_oracle_equivalence():
    comparisons = 0
    for n in (2, 3, 4):
        ctx = make_context(n)
        for a in basis(ctx):
            wa = word_of_monomial(a)
            for b in basis(ctx):
                lhs = Element(ctx, {a: ctx.one}) * Element(ctx, {b: ctx.one})
                rhs = rewrite_word(ctx, wa + word_of_monomial(b))
                assert lhs == rhs, (n, a, b)
                comparisons += 1
    assert comparisons == 2 ** 6 + 3 ** 6 + 4 ** 6
    assert comparisons <= 12288


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "radford", *args],
        capture_output=True,
        text=True,
    )


@criterion(11, "CLI round trip, exit codes, and JSON schemas")
def test_criterion_11_cli_contract(tmp_path):
    # parse/format round trip: 200 seeded elements per order
    for n in ALL_N:
        ctx = make_context(n)
        rng = random.Random(9000 + n)
        for _ in range(200):
            terms = {}
            for _k in range(rng.randrange(0, 5)):
                mono = Monomial(
                    rng.randrange(n), rng.randrange(n), rng.randrange(n)
                )
                coords = [
                    Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                    for _ in range(ctx.degree)
                ]
                c = ctx.from_coords(coords)
                if c:
                    terms[mono] = c
            e = Element(ctx, terms)
            assert parse_element(format_element(e), ctx) == e

    # exit-code contract
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text('{"kind": "diag"')
    assert _run_cli("--n", "3", "verify", "star", "--star",
                    str(corrupt)).returncode == 2

    ctx = make_context(3)
    bad = tmp_path / "bad_raw.json"
    bad.write_text(json.dumps(jsonio.star_to_json(GeneratorMap(
        ctx,
        Element.monomial(ctx, 0, 0, 1),
        Element.monomial(ctx, 0, 1, 0, ctx.from_int(2)),
        Element.monomial(ctx, 1, 0, 0),
    ))))
    proc = _run_cli("--n", "3", "--json", "verify", "star", "--star", str(bad))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    failing = [c for c in report["checks"] if not c["pass"]]
    assert failing and any(c["counterexample"] is not None for c in failing)

    assert _run_cli("--n", "3", "normalize", "x**g").returncode == 2

    # JSON outputs validate against the shipped schemas
    good_diag = tmp_path / "diag.json"
    good_diag.write_text(json.dumps(star_json(
        make_star_diag(ctx, ctx.omega(), ctx.one), "diag"
    )))
    ident = tmp_path / "ident.json"
    c2 = make_context(2)
    ident.write_text(json.dumps(star_json(
        make_star_matrix(c2, (c2.one, c2.zero, c2.zero, c2.one)), "matrix2"
    )))
    diag_i = tmp_path / "diag_i.json"
    diag_i.write_text(json.dumps(star_json(
        make_star_matrix(c2, (c2.i(), c2.zero, c2.zero, -c2.i())), "matrix2"
    )))
    checks = [
        (("--n", "3", "--json", "normalize", "x*g + y"), "element"),
        (("--n", "3", "--json", "mul", "x", "y"), "element"),
        (("--n", "3", "--json", "delta", "y^2"), "tensor_element"),
        (("--n", "3", "--json", "delta-closed", "y^2*x"), "tensor_element"),
        (("--n", "3", "--json", "counit", "x + 5 - g"), "scalar_value"),
        (("--n", "3", "--json", "antipode", "x*g"), "element"),
        (("--n", "3", "--json", "antipode-order"), "antipode_order"),
        (("--n", "3", "--json", "star-apply", "--star", str(good_diag), "x"),
         "element"),
        (("--n", "3", "--json", "verify", "hopf"), "verification_report"),
        (("--n", "3", "--json", "verify", "star", "--star", str(good_diag)),
         "verification_report"),
        (("--n", "3", "--json", "solve", "skew", "--w", "2"), "skew_solution"),
        (("--n", "3", "--json", "grouplike", "g^2"), "grouplike"),
        (("--n", "3", "--json", "equiv", "diag", "--alpha", "w", "--beta", "1"),
         "equivalence_result"),
        (("--n", "2", "--json", "equiv", "n2", "--a", str(ident), "--b",
          str(diag_i)), "equivalence_result"),
        (("--n", "2", "--json", "scan", "--grid", "0,1,-1"), "scan_result"),
    ]
    for argv, schema_name in checks:
        proc = _run_cli(*argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, load_schema(schema_name))
