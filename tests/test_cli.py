"""CLI contract: dispatch, exit codes, JSON schemas, serialization."""

import json
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest

from oracles import count_calls, dense_scalar, generators, load_schema, \
    n2_polarization_oracle, n2_search_oracle, star_json, tensor_from_json, \
    verify_equivalence
from radford import coalgebra, jsonio
from radford.algebra import Element, Monomial
from radford.classify import make_automorphism
from radford.cli import main
from radford.coalgebra import antipode, delta, tensor_map
from radford.errors import ContextMismatchError
from radford.parser import parse_element
from radford import scalars
from radford.scalars import MAX_WORK, make_context
from radford.star import GeneratorMap, make_star_diag, make_star_matrix, \
    verify_hopf_axioms, verify_star_axioms


def run_cli(*args, cwd=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "radford", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )
    return proc


# The one refusal of a call that runs past its budget of work.
WORK_REFUSAL = (f"error: the call needs more than {MAX_WORK} units of work, "
                "the limit for one call\n")


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


class TestJsonRoundTrips:
    def test_element(self):
        ctx = make_context(3)
        g, x, y = generators(ctx)
        e = (x * g).scale(ctx.omega()) + y - Element.one(ctx)
        obj = jsonio.element_to_json(e)
        validate(obj, "element")
        assert jsonio.element_from_json(obj) == e

    def test_element_terms_sorted(self):
        ctx = make_context(3)
        e = Element(ctx, {
            Monomial(1, 0, 0): ctx.one,
            Monomial(0, 0, 1): ctx.one,
        })
        obj = jsonio.element_to_json(e)
        keys = [(t["r"], t["s"], t["l"]) for t in obj["terms"]]
        assert keys == sorted(keys)

    def test_tensor(self):
        ctx = make_context(3)
        g, x, y = generators(ctx)
        t = delta(x * y)
        obj = jsonio.tensor_to_json(t)
        validate(obj, "tensor_element")
        assert tensor_from_json(obj) == t

    def test_star_kinds(self):
        # star_to_json writes every star as its images; a file may also
        # spell a member of the paper's family as diag or matrix2, and
        # every spelling decodes to the same star.
        ctx3, ctx2 = make_context(3), make_context(2)
        stars = [
            (make_star_diag(ctx3, ctx3.omega(), -ctx3.one), ("diag", "matrix2", "raw")),
            (make_star_matrix(ctx2, (ctx2.zero, ctx2.from_int(2),
                                     ctx2.from_fraction(Fraction(1, 2)), ctx2.zero)),
             ("matrix2", "raw")),
            (GeneratorMap(ctx3, Element.monomial(ctx3, 0, 0, 2), Element.one(ctx3),
                          Element.one(ctx3)), ("raw",)),
        ]
        for st, kinds in stars:
            assert jsonio.star_to_json(st)["kind"] == "raw"
            for kind in kinds:
                obj = star_json(st, kind)
                validate(obj, "star_structure")
                assert jsonio.star_from_json(obj, st.ctx) == st

    def test_star_decodes_into_a_larger_conductor(self):
        ctx = make_context(3)
        big = make_context(3, 24)
        obj = star_json(make_star_diag(ctx, ctx.omega(), ctx.from_int(-1)), "diag")
        st = jsonio.star_from_json(obj, big)
        assert st.ctx is big
        assert st.matrix[0] == ctx.omega().embed(big)
        assert verify_star_axioms(st).all_passed
        # 36 is not a multiple of 24, and 6 is another order.
        obj = star_json(make_star_diag(big, big.zeta(1), big.one), "diag")
        for other in (make_context(3, 36), make_context(6, 24)):
            with pytest.raises(ContextMismatchError):
                jsonio.star_from_json(obj, other)

    def test_report_with_counterexample(self, monkeypatch):
        ctx = make_context(3)
        st = GeneratorMap(
            ctx,
            Element.monomial(ctx, 0, 0, 1),
            Element.monomial(ctx, 0, 1, 0, ctx.from_int(2)),
            Element.monomial(ctx, 1, 0, 0),
        )
        rep = verify_star_axioms(st)
        obj = jsonio.report_to_json(rep)
        validate(obj, "verification_report")
        failed = [c for c in obj["checks"] if not c["pass"]]
        assert failed and failed[0]["counterexample"] is not None
        # (id (x) S)D, read only by the triple coproducts, breaks
        # coassociativity at g: the sides g (x) g^2 (x) g^2 and g (x) g^2 (x) g
        # are written as triple tensors.
        sides = coalgebra.triple_delta_sides

        def corrupted_sides(e):
            with monkeypatch.context() as m:
                m.setattr(coalgebra, "delta",
                          lambda e: tensor_map(delta(e), lambda u: u, antipode))
                return sides(e)

        monkeypatch.setattr(coalgebra, "triple_delta_sides", corrupted_sides)
        obj = jsonio.report_to_json(verify_hopf_axioms(ctx))
        validate(obj, "verification_report")
        ce = obj["checks"][0]["counterexample"]
        assert (obj["checks"][0]["name"], ce["monomial"]) == ("coassociativity",
                                                              {"r": 0, "s": 0, "l": 1})
        g, g2 = ({"r": 0, "s": 0, "l": k} for k in (1, 2))
        one = jsonio.scalar_to_json(ctx.one)
        assert ce["lhs"] == {"type": "triple_tensor", "value": {"terms": [
            {"first": g, "second": g2, "third": g2, "coeff": one}]}}
        assert ce["rhs"] == {"type": "triple_tensor", "value": {"terms": [
            {"first": g, "second": g2, "third": g, "coeff": one}]}}

    def test_malformed_scalar_rejected(self):
        ctx = make_context(3)
        from radford.errors import KernelError

        with pytest.raises(KernelError):
            jsonio.scalar_from_json(ctx, ["1", "x", "0", "0"])

    @pytest.mark.parametrize("text", ["1e0", "1.0", " 1", "+1", "1_0", "1/0",
                                      "1/-2", "", "٣"])
    def test_coordinate_outside_the_schema_pattern_rejected(self, text):
        from radford.errors import KernelError

        ctx = make_context(3)
        with pytest.raises(KernelError, match="bad scalar coordinates"):
            jsonio.scalar_from_json(ctx, [text, "0", "0", "0"])

    def test_coordinate_forms_of_the_schema_pattern(self):
        ctx = make_context(3)
        got = jsonio.scalar_from_json(ctx, ["-6/8", "007", "0/5", "-0"])
        assert got == ctx.from_coords([Fraction(-3, 4), 7, 0, 0])
        assert jsonio.scalar_to_json(got) == ["-3/4", "7", "0", "0"]

    def test_oversized_scalar_coordinate_rejected(self):
        ctx = make_context(3)
        from radford.errors import KernelError

        with pytest.raises(KernelError, match="longer than"):
            jsonio.scalar_from_json(ctx, ["7" * 1001, "0", "0", "0"])

    @pytest.mark.parametrize("mono", [
        {"r": 0, "s": 7, "l": 0}, {"r": -1, "s": 0, "l": 0},
        {"r": 0, "s": 0, "l": 3},
    ])
    def test_out_of_range_exponent_rejected(self, mono):
        ctx = make_context(3)
        from radford.errors import KernelError

        obj = {"terms": [dict(mono, coeff=["1", "0", "0", "0"])]}
        with pytest.raises(KernelError, match="outside"):
            jsonio.element_from_json(obj, ctx)

    @pytest.mark.parametrize("text", [
        '{"kind": "diag", "context": {"n": 3, "m": Infinity}}',
        '{"kind": "diag", "context": {"n": 3, "m": 12}, "alpha": [NaN, 0, 0, 0]}',
        '{"kind": "raw", "context": {"n": 3, "m": 12}, "x_img": {}, "y_img": {},'
        ' "g_img": {"terms": [{"r": -Infinity, "s": 0, "l": 0}]}}',
    ])
    def test_non_finite_json_numbers_rejected(self, text):
        from radford.errors import KernelError

        with pytest.raises(KernelError):
            jsonio.star_from_json(json.loads(text), make_context(3))

    @pytest.mark.parametrize("obj", [[1], "x", {"terms": [1]}, {"terms": {}}])
    def test_non_object_element_rejected(self, obj):
        ctx = make_context(3)
        from radford.errors import KernelError

        with pytest.raises(KernelError):
            jsonio.element_from_json(obj, ctx)


@pytest.fixture(scope="module")
def star_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("stars")
    ctx2 = make_context(2)
    ident = root / "ident.json"
    ident.write_text(json.dumps(star_json(
        make_star_matrix(ctx2, (ctx2.one, ctx2.zero, ctx2.zero, ctx2.one)), "matrix2"
    )))
    diag_i = root / "diag_i.json"
    diag_i.write_text(json.dumps(star_json(
        make_star_matrix(ctx2, (ctx2.i(), ctx2.zero, ctx2.zero, -ctx2.i())), "matrix2"
    )))
    for name, matrix in (("diag_i_1.json", (ctx2.i(), ctx2.zero, ctx2.zero, ctx2.one)),
                         ("swap.json", (ctx2.zero, ctx2.one, ctx2.one, ctx2.zero)),
                         ("shear.json", (ctx2.one, ctx2.zero, ctx2.i(), ctx2.one))):
        (root / name).write_text(json.dumps(star_json(make_star_matrix(ctx2, matrix),
                                                      "matrix2")))
    swapscaled = root / "swapscaled.json"
    swapscaled.write_text(json.dumps(star_json(
        make_star_matrix(ctx2, (ctx2.zero, ctx2.from_int(2),
                                ctx2.from_fraction(Fraction(1, 2)), ctx2.zero)),
        "matrix2")))
    for name, alpha, beta in (
            ("diag2_i.json", ctx2.i(), -ctx2.one),
            ("diag2_pyth.json", (ctx2.from_int(3) + ctx2.from_int(4) * ctx2.i())
             * ctx2.from_fraction(Fraction(1, 5)), ctx2.one)):
        (root / name).write_text(json.dumps(star_json(
            make_star_diag(ctx2, alpha, beta), "diag")))
    ctx3 = make_context(3)
    diag3 = root / "diag3.json"
    diag3.write_text(json.dumps(star_json(
        make_star_diag(ctx3, ctx3.omega(), ctx3.one), "diag"
    )))
    ctx24 = make_context(3, 24)
    (root / "diag3_m24.json").write_text(json.dumps(star_json(
        make_star_diag(ctx24, ctx24.zeta(2), ctx24.one), "diag")))
    bad_raw = root / "bad_raw.json"
    bad_raw.write_text(json.dumps(jsonio.star_to_json(
        GeneratorMap(ctx3,
                     Element.monomial(ctx3, 0, 0, 1),
                     Element.monomial(ctx3, 0, 1, 0, ctx3.from_int(2)),
                     Element.monomial(ctx3, 1, 0, 0))
    )))
    raw_obj = jsonio.star_to_json(GeneratorMap(
        ctx3, *(Element.monomial(ctx3, *mono) for mono in
                ((0, 0, 1), (0, 1, 0), (1, 0, 0)))))
    raw_obj["x_img"]["terms"][0]["s"] = 7
    (root / "x_pow7.json").write_text(json.dumps(raw_obj))
    raw_obj["x_img"] = [1]
    (root / "list_img.json").write_text(json.dumps(raw_obj))
    (root / "list_star.json").write_text(json.dumps([raw_obj]))
    raw_obj["context"] = []
    (root / "list_context.json").write_text(json.dumps(raw_obj))
    corrupt = root / "corrupt.json"
    corrupt.write_text('{"kind": "diag", "context": {')
    invalid = root / "invalid.json"
    obj = json.loads(ident.read_text())
    obj["a"][0] = ["2", "0"]
    invalid.write_text(json.dumps(obj))
    return root


class TestCommands:
    def test_normalize_text(self):
        p = run_cli("--n", "3", "normalize", "x*g + w*g*x")
        assert p.returncode == 0
        assert p.stdout.strip() == "(2)*x*g"

    def test_normalize_json_schema(self):
        p = run_cli("--n", "3", "--json", "normalize", "x*y")
        assert p.returncode == 0
        validate(json.loads(p.stdout), "element")

    def test_json_flag_after_subcommand(self):
        p = run_cli("--n", "3", "normalize", "x", "--json")
        assert p.returncode == 0
        validate(json.loads(p.stdout), "element")

    def test_mul(self):
        p = run_cli("--n", "3", "--json", "mul", "x", "y")
        obj = json.loads(p.stdout)
        validate(obj, "element")
        ctx = make_context(3)
        assert jsonio.element_from_json(obj) \
            == Element.monomial(ctx, 1, 1, 0, ctx.omega())

    def test_delta_schema(self):
        p = run_cli("--n", "3", "--json", "delta", "x")
        assert p.returncode == 0
        validate(json.loads(p.stdout), "tensor_element")

    def test_delta_closed_agrees_with_delta(self):
        pd = run_cli("--n", "4", "--json", "delta", "y^2*x*g")
        pc = run_cli("--n", "4", "--json", "delta-closed", "y^2*x*g")
        assert json.loads(pd.stdout) == json.loads(pc.stdout)

    def test_counit(self):
        p = run_cli("--n", "3", "--json", "counit", "x + 5*g")
        obj = json.loads(p.stdout)
        validate(obj, "scalar_value")
        assert obj["coords"][0] == "5"

    def test_antipode(self):
        p = run_cli("--n", "3", "antipode", "x")
        assert p.stdout.strip() == "(-1)*x*g^2"

    def test_antipode_order(self):
        p = run_cli("--n", "4", "--json", "antipode-order")
        obj = json.loads(p.stdout)
        validate(obj, "antipode_order")
        assert obj["order"] == 8

    def test_verify_hopf_passes(self):
        p = run_cli("--n", "3", "verify", "hopf")
        assert p.returncode == 0
        assert "PASS coassociativity" in p.stdout

    def test_verify_hopf_flat_alias(self):
        # The hyphenated alias is gone; the spaced form carries the JSON.
        assert run_cli("--n", "3", "--json", "verify-hopf").returncode == 2
        p = run_cli("--n", "3", "--json", "verify", "hopf")
        assert p.returncode == 0
        validate(json.loads(p.stdout), "verification_report")

    @pytest.mark.parametrize("alias", ["verify-star", "equiv-diag", "equiv-n2"])
    def test_other_flat_aliases_removed(self, alias):
        p = run_cli("--n", "3", alias)
        assert p.returncode == 2
        assert "invalid choice" in p.stderr

    def test_verify_star_pass_and_fail(self, star_files):
        p = run_cli("--n", "3", "verify", "star", "--star",
                    str(star_files / "diag3.json"))
        assert p.returncode == 0
        p = run_cli("--n", "3", "--json", "verify", "star", "--star",
                    str(star_files / "bad_raw.json"))
        assert p.returncode == 1
        obj = json.loads(p.stdout)
        validate(obj, "verification_report")
        failing = [c for c in obj["checks"] if not c["pass"]]
        assert failing
        assert any(c["counterexample"] for c in failing)

    def test_corrupted_star_file_is_usage_error(self, star_files):
        p = run_cli("--n", "2", "verify", "star", "--star",
                    str(star_files / "corrupt.json"))
        assert p.returncode == 2

    def test_invalid_star_matrix_is_usage_error(self, star_files):
        p = run_cli("--n", "2", "verify", "star", "--star",
                    str(star_files / "invalid.json"))
        assert p.returncode == 2

    def test_star_apply(self, star_files):
        p = run_cli("--n", "3", "star-apply", "--star",
                    str(star_files / "diag3.json"), "x*g")
        assert p.returncode == 0
        assert p.stdout.strip() == "x*g"

    def test_star_apply_refuses_a_raw_non_star(self, star_files):
        p = run_cli("--n", "3", "star-apply", "--star",
                    str(star_files / "bad_raw.json"), "y")
        assert p.returncode == 2
        assert p.stderr == "error: not a star structure: FAIL involution at y^0*x^1*g^0\n"

    def test_solve_skew_json(self):
        p = run_cli("--n", "3", "--json", "solve", "skew", "--w", "2")
        assert p.returncode == 0
        obj = json.loads(p.stdout)
        validate(obj, "skew_solution")
        assert obj["dimension"] == 1
        ctx = make_context(3)
        v = jsonio.element_from_json(obj["basis"][0])
        one_minus_g2 = Element.one(ctx) - Element.monomial(ctx, 0, 0, 2)
        # a scalar multiple of 1 - g^2
        c = v.coefficient(0, 0, 0)
        assert v == one_minus_g2.scale(c)

    def test_solve_skew_flat_alias(self):
        assert run_cli("--n", "3", "solve-skew", "--w", "1").returncode == 2
        p = run_cli("--n", "3", "solve", "skew", "--w", "1", "--json")
        assert json.loads(p.stdout)["dimension"] == 3

    @pytest.mark.parametrize("n, w, dim, timeout", [
        pytest.param(24, 1, 3, 60, id="1-3"),
        pytest.param(24, 0, 0, 60, id="0-0"),
        pytest.param(24, 5, 1, 60, id="5-1"),
        pytest.param(48, 1, 3, 10, id="n48-1-3"),
        pytest.param(255, 1, 3, 10, id="n255-1-3"),
        pytest.param(255, 5, 1, 10, id="n255-5-1"),
    ])
    def test_solve_skew_large_n(self, n, w, dim, timeout):
        p = run_cli("--n", str(n), "solve", "skew", "--w", str(w),
                    timeout=timeout)
        assert p.returncode == 0
        assert p.stdout.splitlines()[0] == f"dimension {dim}"

    def test_verify_hopf_n48(self):
        p = run_cli("--n", "48", "verify", "hopf", timeout=10)
        assert p.returncode == 0
        assert "FAIL" not in p.stdout

    # The relation certificates read the top q-binomial rows in closed form;
    # from the q-Pascal triangle these took minutes.
    def test_verify_hopf_at_the_conductor_cap(self):
        p = run_cli("--n", "1024", "verify", "hopf", timeout=10)
        assert p.returncode == 0
        assert p.stdout.count("PASS") == 5

    def test_verify_star_n255(self, tmp_path):
        ctx = make_context(255)
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(star_json(
            make_star_diag(ctx, ctx.zeta(1), ctx.one), "diag")))
        p = run_cli("--n", "255", "verify", "star", "--star", str(path), timeout=10)
        assert p.returncode == 0
        assert p.stdout.count("PASS") == 5

    def test_solve_skew_w_out_of_range(self):
        p = run_cli("--n", "3", "solve", "skew", "--w", "3")
        assert p.returncode == 2
        assert p.stderr == "error: skew parameter w=3 outside [0, 3)\n"

    @pytest.mark.parametrize("args", [
        ("--n", "12", "antipode-order", "--json"),
        ("--n", "16", "solve", "skew", "--w", "1"),
    ])
    def test_closed_stdout_exits_quietly(self, args):
        proc = subprocess.Popen(
            [sys.executable, "-m", "radford", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == ""  # no BrokenPipeError traceback
        assert proc.returncode == 1

    def test_grouplike_exit_codes(self):
        assert run_cli("--n", "3", "grouplike", "g^2").returncode == 0
        p = run_cli("--n", "3", "--json", "grouplike", "1 + x")
        assert p.returncode == 1
        obj = json.loads(p.stdout)
        validate(obj, "grouplike")
        assert obj["grouplike"] is False

    def test_equiv_diag(self):
        p = run_cli("--n", "3", "--json", "equiv", "diag",
                    "--alpha", "w", "--beta", "w^2")
        assert p.returncode == 0
        obj = json.loads(p.stdout)
        validate(obj, "equivalence_result")
        assert obj["equivalent"] is True
        assert obj["witness"]["kind"] == "diag"

    def test_equiv_diag_at_n2(self):
        p = run_cli("--n", "2", "equiv", "diag", "--alpha", "1", "--beta", "1")
        assert p.returncode == 0
        assert p.stdout == "equivalent\n"

    def test_equiv_diag_non_root_parameter(self):
        # (3 + 4i)/5 has norm one but is not a root of unity; the Cayley
        # witness (1 + conj(alpha))/2 = 4/5 - 2/5*i needs no extension.
        p = run_cli("--n", "3", "--json", "equiv", "diag",
                    "--alpha", "3/5 + 4/5*i", "--beta", "1")
        assert p.returncode == 0
        obj = json.loads(p.stdout)
        validate(obj, "equivalence_result")
        assert obj["equivalent"] is True
        assert obj["witness"]["context"] == {"n": 3, "m": 12}
        assert obj["witness"]["lambda1"] == ["4/5", "0", "0", "-2/5"]

    @pytest.mark.parametrize("n", [3, 9, 12])
    def test_equiv_diag_odd_exponent_stays_in_conductor(self, n):
        p = run_cli("--n", str(n), "--json", "equiv", "diag",
                    "--alpha", "z", "--beta", "z^3")
        assert p.returncode == 0
        obj = json.loads(p.stdout)
        assert obj["equivalent"] is True
        assert obj["witness"]["context"] == {"n": n, "m": make_context(n).m}

    def test_equiv_diag_norm_violation_is_usage_error(self):
        p = run_cli("--n", "3", "equiv", "diag", "--alpha", "2", "--beta", "1")
        assert p.returncode == 2

    def test_non_scalar_parameter_is_named(self):
        p = run_cli("--n", "3", "equiv", "diag", "--alpha", "1", "--beta", "1+g")
        assert (p.returncode, p.stdout) == (2, "")
        assert p.stderr == "error: expression '1+g' is not a scalar\n"

    def test_equiv_n2(self, star_files):
        p = run_cli("--n", "2", "--json", "equiv", "n2",
                    "--a", str(star_files / "ident.json"),
                    "--b", str(star_files / "diag_i.json"))
        assert p.returncode == 0
        obj = json.loads(p.stdout)
        validate(obj, "equivalence_result")
        assert obj["equivalent"] is True
        assert obj["witness"] is not None

    def test_equiv_n2_swapscaled(self, star_files):
        p = run_cli("--n", "2", "--json", "equiv", "n2",
                    "--a", str(star_files / "ident.json"),
                    "--b", str(star_files / "swapscaled.json"))
        obj = json.loads(p.stdout)
        validate(obj, "equivalence_result")
        assert obj["equivalent"] is True
        assert p.returncode == 0 and obj["witness"] is not None

    def test_equiv_n2_larger_conductor(self, star_files):
        p = run_cli("--n", "2", "--m", "8", "--json", "equiv", "n2",
                    "--a", str(star_files / "ident.json"),
                    "--b", str(star_files / "diag_i.json"))
        assert p.returncode == 0
        obj = json.loads(p.stdout)
        validate(obj, "equivalence_result")
        assert obj["equivalent"] is True
        assert obj["witness"]["context"] == {"n": 2, "m": 8}

    # A diagonal A is a conj(A) A = I matrix too, so `equiv n2` takes diag
    # files; at n = 2 every witness is of kind matrix2.
    @pytest.mark.parametrize("a, b", [("diag2_i", "diag2_pyth"),
                                      ("diag2_pyth", "swapscaled"),
                                      ("diag_i", "diag2_i")])
    def test_equiv_n2_takes_diag_files(self, star_files, a, b):
        paths = [star_files / f"{name}.json" for name in (a, b)]
        p = run_cli("--n", "2", "--json", "equiv", "n2",
                    "--a", str(paths[0]), "--b", str(paths[1]))
        assert p.returncode == 0, p.stderr
        obj = json.loads(p.stdout)
        validate(obj, "equivalence_result")
        assert obj["equivalent"] is True
        assert obj["witness"]["kind"] == "matrix2"
        ctx = make_context(2)
        st_a, st_b = (jsonio.star_from_json(json.loads(path.read_text()), ctx)
                      for path in paths)
        phi = make_automorphism(ctx, tuple(
            jsonio.scalar_from_json(ctx, c) for c in obj["witness"]["lambda"]))
        assert verify_equivalence(phi, st_a, st_b)
        assert n2_search_oracle(st_a, st_b)
        assert n2_polarization_oracle(st_a, st_b)

    # No command divides in Q(zeta_m): the witness L_A conj(L_B) / 4 inverts
    # no scalar, for a norm-one parameter that is no root of unity, for a
    # nondiagonal pair, and for two files in two conductors.
    @pytest.mark.parametrize("argv", [
        ["--n", "3", "equiv", "diag", "--alpha", "3/5 + 4/5*i", "--beta", "1"],
        ["--n", "2", "equiv", "n2", "--a", "ident.json", "--b", "diag_i_1.json"],
        ["--n", "2", "equiv", "n2", "--a", "swap.json", "--b", "shear.json"],
        ["--n", "3", "--json", "equiv", "n2", "--a", "diag3.json", "--b", "diag3_m24.json"],
    ])
    def test_equiv_inverts_no_scalar(self, star_files, monkeypatch, capsys, argv):
        inverses = count_calls(monkeypatch, scalars.CyclotomicScalar, "inverse")
        argv = [str(star_files / a) if a.endswith(".json") else a for a in argv]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(("equivalent\n", '{"equivalent": true'))
        assert inverses() == 0

    # diag(u, u) with u = w / conj(w) for a w whose coordinates are nonzero
    # integers in [-bound, bound] is a star of the family, dense in the whole
    # field.  Its witness inverts no scalar: it answers at m = 420, and is
    # refused at m = 1020, where deciding that the files lie in the family
    # (``family_defect``) takes most of the work.
    @pytest.mark.parametrize("m, bound, rc, seconds",
                             [(420, 1, 0, 5), (420, 9, 0, 5), (1020, 1, 2, 3)],
                             ids=["420-0-5", "420-0-5-bound9", "1020-2-3"])
    def test_equiv_n2_dense_star(self, m, bound, rc, seconds, tmp_path):
        ctx = make_context(2, m)
        w = dense_scalar(ctx, m, bound)
        u = w * w.conjugate().inverse()
        stars = (make_star_diag(ctx, ctx.one, ctx.one), make_star_matrix(
            ctx, (u, ctx.zero, ctx.zero, u)))
        paths = [tmp_path / f"{name}.json" for name in "ab"]
        for path, st in zip(paths, stars):
            path.write_text(json.dumps(star_json(st, "matrix2")))
        start = time.perf_counter()
        p = run_cli("--n", "2", "--m", str(m), "--json", "equiv", "n2",
                    "--a", str(paths[0]), "--b", str(paths[1]), timeout=60)
        assert time.perf_counter() - start < seconds
        assert p.returncode == rc, p.stderr
        if rc:
            assert (p.stdout, p.stderr) == ("", WORK_REFUSAL)
            return
        obj = json.loads(p.stdout)
        validate(obj, "equivalence_result")
        phi = make_automorphism(ctx, tuple(
            jsonio.scalar_from_json(ctx, c) for c in obj["witness"]["lambda"]))
        assert verify_equivalence(phi, *stars)

    def test_equiv_n2_at_n3(self, star_files):
        # Any two star files at any n; x* = 2x is no star and is refused.
        diag3, bad_raw = (str(star_files / name) for name in ("diag3.json", "bad_raw.json"))
        p = run_cli("--n", "3", "equiv", "n2", "--a", diag3, "--b", diag3)
        assert p.returncode == 0
        assert p.stdout == "equivalent\n"
        p = run_cli("--n", "3", "equiv", "n2", "--a", diag3, "--b", bad_raw)
        assert p.returncode == 2
        assert p.stdout == ""
        assert p.stderr == "error: not a star structure: FAIL involution at y^0*x^1*g^0\n"

    def test_scan_json(self):
        p = run_cli("--n", "2", "--json", "scan", "--grid", "0,1,-1")
        assert p.returncode == 0
        obj = json.loads(p.stdout)
        validate(obj, "scan_result")
        assert len(obj["survivors"]) >= 2

    def test_parse_error_exit_2(self):
        p = run_cli("--n", "3", "normalize", "x**g")
        assert p.returncode == 2
        assert "column 3" in p.stderr

    def test_missing_n_exit_2(self):
        p = run_cli("normalize", "x")
        assert p.returncode == 2

    def test_bad_conductor_exit_2(self):
        p = run_cli("--n", "3", "--m", "8", "normalize", "x")
        assert p.returncode == 2

    @pytest.mark.parametrize("args", [
        ("--n", "100000", "antipode-order"),
        ("--n", "3", "--m", "120000", "normalize", "1"),
    ])
    def test_oversized_conductor_exit_2(self, args):
        p = run_cli(*args, timeout=10)
        assert p.returncode == 2
        assert "exceeds the limit" in p.stderr

    def test_wrong_order_star_file_exit_2(self, star_files):
        p = run_cli("--n", "2", "verify", "star", "--star",
                    str(star_files / "diag3.json"))
        assert p.returncode == 2

    @pytest.mark.parametrize("name, message", [
        ("x_pow7.json", "outside [0, 3)"),
        ("list_img.json", "expected a JSON object"),
        ("list_star.json", "bad star structure: it must be a JSON object"),
        ("list_context.json", "bad context header: it must be a JSON object"),
    ])
    def test_malformed_raw_image_exit_2(self, star_files, name, message):
        p = run_cli("--n", "3", "star-apply", "--star", str(star_files / name),
                    "x")
        assert p.returncode == 2
        assert p.stdout == ""
        assert p.stderr.count("\n") == 1 and message in p.stderr

    @pytest.mark.parametrize("key, value", [
        (key, value) for key in "nmrsl" for value in ("3", True, 1.9)])
    def test_non_integer_header_or_exponent_exit_2(self, tmp_path, key, value):
        # The schemas read n, m, r, s, l as integers: no string, boolean or
        # fractional part, where int() used to truncate 1.9 to 1.
        ctx = make_context(3)
        obj = star_json(GeneratorMap(ctx, *generators(ctx)), "raw")
        (obj["context"] if key in "nm" else obj["x_img"]["terms"][0])[key] = value
        path = tmp_path / "star.json"
        path.write_text(json.dumps(obj))
        p = run_cli("--n", "3", "star-apply", "--star", str(path), "x")
        assert p.returncode == 2
        assert p.stderr.endswith(f"{key} must be an integer, got {value!r}\n")

    def test_integral_float_header_is_read(self, tmp_path):
        # 3.0 is an integer to the schemas, as to JSON Schema draft 7.
        ctx = make_context(3)
        obj = star_json(make_star_diag(ctx, ctx.one, ctx.one), "diag")
        obj["context"] = {"n": 3.0, "m": 12.0}
        path = tmp_path / "star.json"
        path.write_text(json.dumps(obj))
        validate(obj, "star_structure")
        p = run_cli("--n", "3", "star-apply", "--star", str(path), "x")
        assert (p.returncode, p.stdout) == (0, "x\n")

    def test_monomial_listed_twice_exit_2(self, tmp_path):
        ctx = make_context(3)
        obj = star_json(GeneratorMap(ctx, *generators(ctx)), "raw")
        terms = obj["x_img"]["terms"]
        terms.append(dict(terms[0], coeff=["2", "0", "0", "0"]))
        path = tmp_path / "star.json"
        path.write_text(json.dumps(obj))
        p = run_cli("--n", "3", "verify", "star", "--star", str(path))
        assert (p.returncode, p.stdout) == (2, "")
        assert p.stderr == "error: monomial y^0*x^1*g^0 appears twice in one element\n"

    def test_star_past_the_cost_limit_exit_2(self, tmp_path):
        # x* = a x with 64 coordinates of 1000 digits each is decided at
        # once: the pair (x^127, x) takes no power of a (``_nilpotent``),
        # and the involution fails.  x* = b x, y* = b y with b the norm-one
        # ((3 + 4i)/5)^700 is a star, and star-apply on x^127 would raise b
        # to the power 127: refused after one call's budget of work.
        n = 128
        ctx = make_context(n)
        a = ctx.from_coords([7 * 10 ** 999 + k for k in range(ctx.degree)])
        g, x, y = generators(ctx)
        path = tmp_path / "star.json"
        path.write_text(json.dumps(star_json(GeneratorMap(ctx, g, x.scale(a), y), "raw")))
        p = run_cli("--n", str(n), "verify", "star", "--star", str(path), timeout=10)
        assert p.returncode == 1 and "FAIL involution" in p.stdout
        b = (ctx.from_fraction(Fraction(1, 5)) * (3 + 4 * ctx.i())) ** 700
        path.write_text(json.dumps(star_json(make_star_diag(ctx, b, b), "diag")))
        start = time.perf_counter()
        p = run_cli("--n", str(n), "star-apply", "--star", str(path), "x^127", timeout=10)
        assert time.perf_counter() - start < 3
        assert (p.returncode, p.stdout, p.stderr) == (2, "", WORK_REFUSAL)

    def test_star_apply_to_2744_terms_exit_2_within_3_s(self, tmp_path):
        # The same b at n = 64, applied to the 2744 terms of
        # (1+y+...+y^13)(1+x+...+x^13)(1+g+...+g^13): each image is a power
        # b^(r+s), of up to 26 000 digits.
        ctx = make_context(64)
        b = (ctx.from_fraction(Fraction(1, 5)) * (3 + 4 * ctx.i())) ** 700
        path = tmp_path / "star.json"
        path.write_text(json.dumps(star_json(make_star_diag(ctx, b, b), "diag")))
        e = "*".join("(" + "+".join(["1"] + [f"{v}^{k}" for k in range(1, 14)]) + ")"
                     for v in "yxg")
        start = time.perf_counter()
        p = run_cli("--n", "64", "star-apply", "--star", str(path), e, timeout=10)
        assert time.perf_counter() - start < 3
        assert (p.returncode, p.stdout, p.stderr) == (2, "", WORK_REFUSAL)

    def test_norm_one_power_verifies_at_n_1024(self, tmp_path):
        # alpha = (3/5 + 4/5 i)^7 has norm one and denominator 5^7, so the
        # pair (x^1023, x) multiplies integers of about 5000 digits: the
        # star passes, and only printing such a coefficient is refused.
        ctx = make_context(1024)
        alpha = (ctx.from_fraction(Fraction(1, 5)) * (3 + 4 * ctx.i())) ** 7
        path = tmp_path / "star.json"
        path.write_text(json.dumps(star_json(make_star_diag(ctx, alpha, ctx.one), "diag")))
        p = run_cli("--n", "1024", "verify", "star", "--star", str(path), timeout=60)
        assert (p.returncode, p.stdout.count("PASS "), p.stderr) == (0, 5, "")
        p = run_cli("--n", "1024", "star-apply", "--star", str(path), "x^1023", timeout=60)
        assert (p.returncode, p.stdout) == (2, "")
        assert p.stderr == "error: a scalar coordinate has too many digits to print\n"

    @pytest.mark.parametrize("n", [2, 3])
    def test_star_spellings_give_the_same_output(self, n, tmp_path, capsys):
        # One star spelled diag, matrix2 and raw: star-apply and equiv n2
        # print the same, in text and in JSON.
        ctx = make_context(n)
        st = make_star_diag(ctx, ctx.i(), -ctx.one)
        trivial = tmp_path / "trivial.json"
        trivial.write_text(json.dumps(star_json(make_star_diag(ctx, ctx.one, ctx.one),
                                                "diag")))
        outputs = set()
        for kind in ("diag", "matrix2", "raw"):
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(star_json(st, kind)))
            runs = []
            for flag in ([], ["--json"]):
                for tail in (["star-apply", "--star", str(path), "x*g + i*y + 2"],
                             ["equiv", "n2", "--a", str(path), "--b", str(trivial)],
                             ["equiv", "n2", "--a", str(trivial), "--b", str(path)]):
                    assert main(["--n", str(n), *flag, *tail]) == 0, (kind, tail)
                    out, err = capsys.readouterr()
                    assert err == ""
                    runs.append(out)
            outputs.add(tuple(runs))
        assert len(outputs) == 1

    @pytest.mark.parametrize("expr", [
        "9" * 5000,
        "(1+z)^100000",
        "(1+z)^1000000000",
        "(" * 5000 + "1" + ")" * 5000,
    ])
    def test_hostile_expression_exit_2(self, expr):
        p = run_cli("--n", "3", "normalize", expr, timeout=10)
        assert p.returncode == 2
        assert p.stderr.count("\n") == 1 and "error: " in p.stderr

    # A dozen characters each, which expand past the budget on products.
    @pytest.mark.parametrize("n, expr", [
        (64, "(x+y+g)^63"), (128, "(x+y+g)^100"), (255, "(x+y)^120"),
    ])
    def test_expanding_expression_exit_2(self, n, expr):
        p = run_cli("--n", str(n), "normalize", expr, timeout=10)
        assert (p.returncode, p.stdout, p.stderr) == (2, "", WORK_REFUSAL)

    def test_n3_default_scan(self):
        p = run_cli("--n", "3", "scan", timeout=10)
        assert p.returncode == 0
        assert p.stdout.startswith("survivors 144\n")

    def test_n4_unit_grid_scan(self):
        p = run_cli("--n", "4", "scan", "--grid", "0,1,-1,i,-i", timeout=10)
        assert p.returncode == 0
        assert p.stdout.startswith("survivors 16\n")

    # 0 and the 240th roots at n = 3 list 240^2 structures, 0, 1 and 99
    # more roots at n = 102, m = 1020 list 100^2, and the 419 integers at
    # n = 2 take 419^2 lookups to list 2: each is refused once it has done
    # one call's budget of work, within 3 s.
    @pytest.mark.parametrize("args", [
        ("--n", "3", "--m", "240", "scan"),
        ("--n", "102", "--m", "1020", "scan", "--grid=" + ",".join(
            ["0", "1"] + [f"z^{k}" for k in range(1, 100)])),
        ("--n", "2", "scan", "--grid", ",".join(str(k) for k in range(419))),
    ], ids=["n3-m240", "n102-100-roots", "n2-419-integers"])
    def test_oversized_scan_exit_2(self, args):
        start = time.perf_counter()
        p = run_cli(*args, timeout=10)
        assert time.perf_counter() - start < 3
        assert (p.returncode, p.stdout, p.stderr) == (2, "", WORK_REFUSAL)

    # 0 and 300 values (t+z)^200 at m = 1020: each takes 9 products and a
    # norm test of up to 256 dense coordinates.
    def test_oversized_grid_exit_2(self):
        grid = ",".join(["0"] + [f"({t}+z)^200" for t in range(2, 302)])
        start = time.perf_counter()
        p = run_cli("--n", "3", "--m", "1020", "scan", "--grid", grid, timeout=10)
        assert time.perf_counter() - start < 3
        assert (p.returncode, p.stdout, p.stderr) == (2, "", WORK_REFUSAL)

    # (100000001+z^7)^100, ..., (100000048+z^7)^100 at m = 1020: each takes
    # about 20 ms to evaluate and 0.3-0.4 s to test for norm one (256 dense
    # coordinates of about 800 digits), 19 s in all.
    def test_norm_heavy_grid_exit_2(self):
        grid = ",".join(["0"] + [f"({t}+z^7)^100" for t in range(100000001, 100000049)])
        start = time.perf_counter()
        p = run_cli("--n", "3", "--m", "1020", "scan", "--grid", grid, timeout=10)
        assert time.perf_counter() - start < 3
        assert (p.returncode, p.stdout, p.stderr) == (2, "", WORK_REFUSAL)

    # 0, 1 and twelve values (t+z)^200 at m = 1020 are admitted.  At
    # n = 3 the family on a grid is the pairs of its norm-one values (README,
    # "Why scan lists the paper's family"); of these only 1 has norm one.
    # (scan_oracle's 14^6 candidates at phi(m) = 256 are out of reach here;
    # it is compared with scan on small grids in test_classify.)
    def test_grid_of_twelve_long_powers_is_admitted(self):
        grid = ["0", "1"] + [f"({t}+z)^200" for t in range(2, 14)]
        p = run_cli("--n", "3", "--m", "1020", "scan", "--grid", ",".join(grid), timeout=10)
        assert p.returncode == 0, p.stderr
        ctx = make_context(3, 1020)
        values = [parse_element(t, ctx).coefficient(0, 0, 0) for t in grid]
        assert [c for c in values if c * c.conjugate() == 1] == [ctx.one]
        assert p.stdout == "survivors 1\ng -> g; x -> x; y -> y\n"

    @pytest.mark.parametrize("grid, survivors", [
        (["0"] + [f"z^{k}" for k in range(990, 1020)], 900),
        ([str(k) for k in range(391)], 1),
    ])
    def test_cheap_grid_values_are_admitted(self, grid, survivors):
        p = run_cli("--n", "3", "--m", "1020", "scan", "--grid", ",".join(grid),
                    timeout=10)
        assert p.returncode == 0, p.stderr
        assert p.stdout.startswith(f"survivors {survivors}\n")

    def test_n2_scan_of_44_integers(self):
        # 1 is the only norm-one value: 44 * 45 lookups list the identity
        # and the swap.
        p = run_cli("--n", "2", "scan", "--grid",
                    ",".join(str(k) for k in range(44)), timeout=10)
        assert p.returncode == 0, p.stderr
        assert p.stdout.splitlines() == [
            "survivors 2", "g -> g; x -> y; y -> x", "g -> g; x -> x; y -> y"]

    def test_n2_scan_of_25_values(self):
        # 0 and the 24th roots of unity: the first row of conj(A) A = I
        # finds a21 and a22, so the listing runs no k^4 matrix tests.
        p = run_cli("--n", "2", "--m", "24", "scan", timeout=10)
        assert p.returncode == 0
        assert p.stdout.startswith("survivors 1752\n")

    def test_negative_first_grid_value(self):
        p = run_cli("--n", "3", "scan", "--grid=-1,0,1", timeout=10)
        assert p.returncode == 0
        assert p.stdout.startswith("survivors 4\n")

    # Ten zeros count only 11^3 + 11 candidates, but every repeated value
    # multiplies the structures the scan lists and verifies.
    def test_repeated_scan_grid_value_exit_2(self):
        p = run_cli("--n", "3", "scan", "--grid", "0,0,0,0,0,0,0,0,0,0,1",
                    timeout=10)
        assert p.returncode == 2
        assert p.stdout == ""
        assert p.stderr == ("error: scan grid repeats a value: values 1 and 2 "
                            "are equal; list each value once\n")

    # w = z^4 at m = 12: a repeat is named by the positions of both values.
    @pytest.mark.parametrize("grid, stderr", [
        ("0,1,i,-1,w,z^4", "error: scan grid repeats a value: values 5 and 6 "
                           "are equal; list each value once\n"),
        ("0,1,1+(2", "syntax error: grid value 3: expected ')' at line 1, column 5\n"),
        ("0,g,1", "error: grid value 2: expression 'g' is not a scalar\n"),
    ], ids=["repeated", "syntax", "not-scalar"])
    def test_bad_grid_value_is_named(self, grid, stderr):
        p = run_cli("--n", "3", "scan", "--grid", grid, timeout=10)
        assert (p.returncode, p.stdout, p.stderr) == (2, "", stderr)

    def test_empty_scan_grid_exit_2(self):
        p = run_cli("--n", "3", "scan", "--grid", "", timeout=10)
        assert p.returncode == 2
        assert p.stdout == ""
        assert p.stderr.startswith("syntax error")

    # The top monomial at n = 255 has 65 025 terms, y^254 x^8 has 2295 and
    # y^22 x^22 g 529, each with coefficients of phi(1020) = 256 coordinates.
    @pytest.mark.parametrize("expr", ["y^254*x^254*g", "y^254*x^8", "y^22*x^22*g"])
    def test_oversized_delta_exit_2(self, expr):
        start = time.perf_counter()
        p = run_cli("--n", "255", "delta", expr, timeout=10)
        assert time.perf_counter() - start < 3
        assert (p.returncode, p.stdout, p.stderr) == (2, "", WORK_REFUSAL)

    # mul A B is evaluated as normalize "(A)*(B)": at n = 64 A has 2744
    # terms, and A * A takes 2744^2 term pairs; the 512-monomial E at n = 8
    # squared takes 512^2.  Both are refused within one call's budget.
    @pytest.mark.parametrize("n, k", [(64, 14), (8, 8)])
    def test_mul_is_budgeted_as_one_product(self, n, k):
        a = "*".join("(" + "+".join(["1"] + [f"{v}^{e}" for e in range(1, k)]) + ")"
                     for v in "yxg")
        start = time.perf_counter()
        p = run_cli("--n", str(n), "mul", a, a, timeout=10)
        assert time.perf_counter() - start < 3
        assert (p.returncode, p.stdout, p.stderr) == (2, "", WORK_REFUSAL)
        assert p.stderr == run_cli("--n", str(n), "normalize", f"({a})*({a})").stderr

    def test_closed_top_row_delta_is_admitted(self):
        # 256 terms from the closed top row 127 and row 1: no q-Pascal row
        # 127 of 8128 entries is built.
        p = run_cli("--n", "128", "delta", "y^127*x", timeout=10)
        assert p.returncode == 0
        assert p.stdout.count("⊗") == 256

    def test_largest_admitted_delta(self):
        # y^22 x^22 g is refused (test_oversized_delta_exit_2).
        p = run_cli("--n", "255", "delta", "y^21*x^21*g", timeout=30)
        assert p.returncode == 0, p.stderr
        assert p.stdout.count("⊗") == 22 * 22


TOP_USAGE = """\
usage: radford [-h] [--n N] [--m M] [--json]
               {normalize,mul,delta,delta-closed,counit,antipode,antipode-order,star-apply,verify,solve,grouplike,equiv,scan}
               ...
"""

# Usage, help and argparse errors, byte for byte as they were when every
# call built all seventeen subparsers.
USAGE_CASES = [
    (["normalize", "x"], 2, "",
     TOP_USAGE + "radford: error: --n is required\n"),
    (["--n", "3", "bogus"], 2, "",
     TOP_USAGE + "radford: error: argument command: invalid choice: 'bogus' "
     "(choose from 'normalize', 'mul', 'delta', 'delta-closed', 'counit', "
     "'antipode', 'antipode-order', 'star-apply', 'verify', 'solve', "
     "'grouplike', 'equiv', 'scan')\n"),
    (["--n", "3", "verify"], 2, "",
     "usage: radford verify [-h] {hopf,star} ...\n"
     "radford verify: error: the following arguments are required: subcommand\n"),
    (["--n", "3", "--m", "x", "normalize", "x"], 2, "",
     TOP_USAGE + "radford: error: argument --m: invalid int value: 'x'\n"),
    # Only ASCII digits after an optional '-', where int() reads other
    # Unicode digits, '_' and spaces too.
    (["--n", "٣", "--m", "١٢", "normalize", "x"], 2, "",
     TOP_USAGE + "radford: error: argument --n: invalid int value: '٣'\n"),
    (["--n", "1_0", "normalize", "x"], 2, "",
     TOP_USAGE + "radford: error: argument --n: invalid int value: '1_0'\n"),
    (["--n", " 3 ", "normalize", "x"], 2, "",
     TOP_USAGE + "radford: error: argument --n: invalid int value: ' 3 '\n"),
    (["--n", "3", "--m", "+12", "normalize", "x"], 2, "",
     TOP_USAGE + "radford: error: argument --m: invalid int value: '+12'\n"),
    (["--n", "3", "solve", "skew", "--w", "١"], 2, "",
     "usage: radford solve skew [-h] [--json] [--n N] [--m M] --w W\n"
     "radford solve skew: error: argument --w: invalid int value: '١'\n"),
    (["-h"], 0, TOP_USAGE + """
Exact kernel for the Radford Hopf algebra H_n

positional arguments:
  {normalize,mul,delta,delta-closed,counit,antipode,antipode-order,star-apply,verify,solve,grouplike,equiv,scan}

options:
  -h, --help            show this help message and exit
  --n N                 order of the root of unity (required)
  --m M                 conductor, a multiple of lcm(4, n)
  --json                emit JSON instead of text
""", ""),
    (["--n", "3", "scan", "-h"], 0, """\
usage: radford scan [-h] [--json] [--n N] [--m M] [--grid GRID]

options:
  -h, --help   show this help message and exit
  --json       emit JSON instead of text
  --n N        order of the root of unity (required)
  --m M        conductor, a multiple of lcm(4, n)
  --grid GRID  comma-separated scalar expressions; write --grid=-1,1 when the
               first one starts with '-'; default is all m-th roots of unity
               and 0
""", ""),
    (["--n", "3", "normalize", "-h"], 0, """\
usage: radford normalize [-h] [--json] [--n N] [--m M] expr

positional arguments:
  expr        element expression, e.g. 'x*g + w*g*x'; write -- before it when
              it starts with '-': normalize -- -x

options:
  -h, --help  show this help message and exit
  --json      emit JSON instead of text
  --n N       order of the root of unity (required)
  --m M       conductor, a multiple of lcm(4, n)
""", ""),
    (["--n", "3", "normalize", "-x"], 2, "",
     "usage: radford normalize [-h] [--json] [--n N] [--m M] expr\n"
     "radford normalize: error: the following arguments are required: expr\n"),
    (["--n", "3", "solve", "skew"], 2, "",
     "usage: radford solve skew [-h] [--json] [--n N] [--m M] --w W\n"
     "radford solve skew: error: the following arguments are required: --w\n"),
]


@pytest.mark.parametrize("argv, rc, out, err", USAGE_CASES,
                         ids=[" ".join(case[0]) for case in USAGE_CASES])
def test_usage_output(argv, rc, out, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == rc
    assert capsys.readouterr() == (out, err)


# `--n 3 verify hopf`, counted by the meter of ``scalars``: its scalar
# products, sums, printed coordinates and collected terms.
VERIFY_HOPF_N3_WORK = 19103


class TestWorkMeter:
    def test_same_command_reads_the_same_count(self, capsys):
        counts = []
        for _ in range(2):
            assert main(["--n", "3", "verify", "hopf"]) == 0
            counts.append(scalars._meter.spent)
        capsys.readouterr()
        assert counts == [VERIFY_HOPF_N3_WORK] * 2
        # Between calls, library code runs unmetered.
        assert scalars._meter.budget is None

    def test_every_call_gets_a_fresh_budget(self):
        # A refused call, a call whose reader closed stdout, and each time a
        # call after it that does its whole work again, in one process.
        code = (
            "import json, sys\n"
            "import radford.cli as cli\n"
            "from radford import scalars\n"
            "real = sys.stdout\n"
            "class Closed:\n"
            "    def write(self, text): raise BrokenPipeError\n"
            "    def flush(self): raise BrokenPipeError\n"
            "    def fileno(self): return real.fileno()\n"
            "runs = []\n"
            "for argv, out in (([\"--n\", \"255\", \"normalize\", \"(x+y)^120\"], real),\n"
            "                  ([\"--n\", \"3\", \"verify\", \"hopf\"], real),\n"
            "                  ([\"--n\", \"3\", \"verify\", \"hopf\"], Closed()),\n"
            "                  ([\"--n\", \"3\", \"verify\", \"hopf\"], real)):\n"
            "    sys.stdout = out\n"
            "    runs.append([cli.main(argv), scalars._meter.spent])\n"
            "sys.stdout = real\n"
            "print(json.dumps(runs), file=sys.stderr)\n")
        p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=30)
        runs = json.loads(p.stderr.splitlines()[-1])
        assert runs[0] == [2, runs[0][1]] and runs[0][1] > MAX_WORK
        assert runs[1:] == [[0, VERIFY_HOPF_N3_WORK], [1, VERIFY_HOPF_N3_WORK],
                            [0, VERIFY_HOPF_N3_WORK]]
