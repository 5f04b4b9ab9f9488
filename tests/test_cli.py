"""CLI contract: dispatch, exit codes, JSON schemas, serialization."""

import json
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

from radford import jsonio
from radford.algebra import Element, Monomial, generators
from radford.cli import main
from radford.coalgebra import delta, delta_coords
from radford.parser import MAX_EXPR_COORDS, parse_element
from radford.scalars import MAX_DELTA_COORDS, MAX_SCAN_CANDIDATES, make_context
from radford.star import make_star_diag, make_star_matrix, make_star_raw, \
    verify_star_axioms


def run_cli(*args, cwd=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "radford", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )
    return proc


def validate(payload, schema_name):
    jsonschema.validate(payload, jsonio.load_schema(schema_name))


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
        assert jsonio.tensor_from_json(obj) == t

    def test_star_kinds(self):
        ctx3 = make_context(3)
        st = make_star_diag(ctx3, ctx3.omega(), -ctx3.one)
        obj = jsonio.star_to_json(st)
        validate(obj, "star_structure")
        assert jsonio.star_from_json(obj) == st

        ctx2 = make_context(2)
        stm = make_star_matrix(
            ctx2, (ctx2.zero, ctx2.from_int(2),
                   ctx2.from_fraction(Fraction(1, 2)), ctx2.zero)
        )
        obj = jsonio.star_to_json(stm)
        validate(obj, "star_structure")
        assert jsonio.star_from_json(obj) == stm

        raw = make_star_raw(
            ctx3,
            Element.monomial(ctx3, 0, 0, 2),
            Element.one(ctx3),
            Element.one(ctx3),
        )
        obj = jsonio.star_to_json(raw)
        validate(obj, "star_structure")
        assert jsonio.star_from_json(obj) == raw

    def test_report_with_counterexample(self):
        ctx = make_context(3)
        st = make_star_raw(
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

    def test_malformed_scalar_rejected(self):
        ctx = make_context(3)
        from radford.errors import KernelError

        with pytest.raises(KernelError):
            jsonio.scalar_from_json(ctx, ["1", "x", "0", "0"])

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
            jsonio.star_from_json(json.loads(text))

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
    ident.write_text(json.dumps(jsonio.star_to_json(
        make_star_matrix(ctx2, (ctx2.one, ctx2.zero, ctx2.zero, ctx2.one))
    )))
    diag_i = root / "diag_i.json"
    diag_i.write_text(json.dumps(jsonio.star_to_json(
        make_star_matrix(ctx2, (ctx2.i(), ctx2.zero, ctx2.zero, -ctx2.i()))
    )))
    swapscaled = root / "swapscaled.json"
    swapscaled.write_text(json.dumps(jsonio.star_to_json(
        make_star_matrix(ctx2, (ctx2.zero, ctx2.from_int(2),
                                ctx2.from_fraction(Fraction(1, 2)), ctx2.zero))
    )))
    ctx3 = make_context(3)
    diag3 = root / "diag3.json"
    diag3.write_text(json.dumps(jsonio.star_to_json(
        make_star_diag(ctx3, ctx3.omega(), ctx3.one)
    )))
    bad_raw = root / "bad_raw.json"
    bad_raw.write_text(json.dumps(jsonio.star_to_json(
        make_star_raw(ctx3,
                      Element.monomial(ctx3, 0, 0, 1),
                      Element.monomial(ctx3, 0, 1, 0, ctx3.from_int(2)),
                      Element.monomial(ctx3, 1, 0, 0))
    )))
    raw_obj = jsonio.star_to_json(make_star_raw(
        ctx3, *(Element.monomial(ctx3, *mono) for mono in
                ((0, 0, 1), (0, 1, 0), (1, 0, 0)))))
    raw_obj["x_img"]["terms"][0]["s"] = 7
    (root / "x_pow7.json").write_text(json.dumps(raw_obj))
    raw_obj["x_img"] = [1]
    (root / "list_img.json").write_text(json.dumps(raw_obj))
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

    def test_equiv_diag_rejects_n2(self):
        p = run_cli("--n", "2", "equiv", "diag", "--alpha", "1", "--beta", "1")
        assert p.returncode == 2

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
    ])
    def test_malformed_raw_image_exit_2(self, star_files, name, message):
        p = run_cli("--n", "3", "star-apply", "--star", str(star_files / name),
                    "x")
        assert p.returncode == 2
        assert p.stdout == ""
        assert p.stderr.count("\n") == 1 and message in p.stderr

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
        assert p.returncode == 2
        assert p.stdout == ""
        assert p.stderr.count("\n") == 1
        assert f"above the limit {MAX_EXPR_COORDS}" in p.stderr

    def test_n3_default_scan(self):
        p = run_cli("--n", "3", "scan", timeout=60)
        assert p.returncode == 0
        assert p.stdout.startswith("survivors 144\n")

    def test_n4_unit_grid_scan(self):
        p = run_cli("--n", "4", "scan", "--grid", "0,1,-1,i,-i", timeout=10)
        assert p.returncode == 0
        assert p.stdout.startswith("survivors 16\n")

    # 121 values at n = 3 (121^3 + 121 candidates), and 12 values at n = 2,
    # where the 12^4 pairs of c x + c' y images count as well.
    @pytest.mark.parametrize("args, size, count", [
        (("--n", "3", "--m", "120", "scan"), 121, 1771682),
        (("--n", "2", "scan", "--grid", ",".join(str(k) for k in range(12))),
         12, 22464),
    ])
    def test_oversized_scan_exit_2(self, args, size, count):
        p = run_cli(*args, timeout=10)
        assert p.returncode == 2
        assert p.stdout == ""
        assert p.stderr == (
            f"error: scan of {size} grid values at n={args[1]} has {count} "
            f"candidates, above the limit {MAX_SCAN_CANDIDATES}; "
            "pass a smaller --grid\n")

    # The top monomial at n = 255 has 65 025 terms; y^254 x has only 510,
    # but its q-Pascal row 254 has 32 385 entries.
    @pytest.mark.parametrize("expr", ["y^254*x^254*g", "y^254*x", "y^14*x^14*g"])
    def test_oversized_delta_exit_2(self, expr):
        p = run_cli("--n", "255", "delta", expr, timeout=10)
        assert p.returncode == 2
        assert p.stdout == ""
        assert p.stderr.count("\n") == 1
        assert f"above the limit {MAX_DELTA_COORDS}" in p.stderr

    def test_largest_admitted_delta(self):
        expr = "y^13*x^13*g"
        ctx = make_context(255)
        assert delta_coords(parse_element(expr, ctx)) <= MAX_DELTA_COORDS
        p = run_cli("--n", "255", "delta", expr, timeout=30)
        assert p.returncode == 0
        assert p.stdout.count("⊗") == 14 * 14


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
  --grid GRID  comma-separated scalar expressions; default is all m-th roots
               of unity and 0
""", ""),
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
