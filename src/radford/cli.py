"""Command-line interface: `radford --n N [--m M] [--json] COMMAND ...`.

Exit codes: 0 on success / all checks passing; 1 when a verification
fails or an equivalence query answers "not equivalent"; 2 on usage,
parse, or malformed-input errors, including a conductor above
``scalars.MAX_CONDUCTOR`` and an input number or expression that can
exceed ``scalars.MAX_INPUT_DIGITS`` digits.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import jsonio
from .classify import (
    EquivalenceResult,
    equivalence_witness_diag,
    scan_star_candidates,
    solve_equivalence_n2,
)
from .coalgebra import antipode, antipode_order, counit, delta
from .errors import ExprSyntaxError, KernelError
from .parser import format_element, format_scalar, format_tensor, parse_element, \
    parse_scalar
from .scalars import make_context, unify_contexts
from .solver import is_grouplike, skew_primitive_space
from .star import apply_star, make_star_diag, verify_hopf_axioms, \
    verify_star_axioms


def _emit(args, payload, text):
    if args.json:
        import json

        print(json.dumps(payload))
    else:
        print(text)


def _report_lines(report):
    def word(mono):
        return f"y^{mono.r}*x^{mono.s}*g^{mono.l}"

    lines = []
    for c in report.checks:
        line = f"{'PASS' if c.passed else 'FAIL'} {c.name}"
        if c.counterexample is not None:
            kind, at = c.counterexample.location
            line += " at " + (word(at) if kind == "monomial"
                              else f"({word(at[0])}, {word(at[1])})")
        lines.append(line)
    return "\n".join(lines)


def _load_star(path, ctx):
    import json

    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as exc:
        raise KernelError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # Bad syntax, bad UTF-8, or an integer past Python's digit limit.
        raise KernelError(f"{path} is not valid JSON: {exc}") from exc
    st = jsonio.star_from_json(obj)
    if st.ctx.n != ctx.n:
        raise KernelError(
            f"star structure has n={st.ctx.n}, command requested n={ctx.n}"
        )
    return st.embed(unify_contexts(st.ctx, ctx))


def _emit_element(args, e):
    _emit(args, jsonio.element_to_json(e), format_element(e))
    return 0


def _cmd_normalize(args, ctx):
    return _emit_element(args, parse_element(args.expr, ctx))


def _cmd_mul(args, ctx):
    lhs, rhs = (parse_element(text, ctx) for text in (args.lhs, args.rhs))
    return _emit_element(args, lhs * rhs)


def _cmd_delta(args, ctx):
    t = delta(parse_element(args.expr, ctx))
    _emit(args, jsonio.tensor_to_json(t), format_tensor(t))
    return 0


def _cmd_counit(args, ctx):
    c = counit(parse_element(args.expr, ctx))
    payload = {"context": jsonio.context_to_json(ctx),
               "coords": jsonio.scalar_to_json(c)}
    _emit(args, payload, format_scalar(c))
    return 0


def _cmd_antipode(args, ctx):
    return _emit_element(args, antipode(parse_element(args.expr, ctx)))


def _cmd_antipode_order(args, ctx):
    k = antipode_order(ctx)
    _emit(args, {"order": k}, str(k))
    return 0


def _cmd_star_apply(args, ctx):
    st = _load_star(args.star, ctx)
    return _emit_element(args, apply_star(st, parse_element(args.expr, st.ctx)))


def _cmd_verify_hopf(args, ctx):
    report = verify_hopf_axioms(ctx)
    _emit(args, jsonio.report_to_json(report), _report_lines(report))
    return 0 if report.all_passed else 1


def _cmd_verify_star(args, ctx):
    st = _load_star(args.star, ctx)
    report = verify_star_axioms(st)
    _emit(args, jsonio.report_to_json(report), _report_lines(report))
    return 0 if report.all_passed else 1


def _cmd_solve_skew(args, ctx):
    vectors = skew_primitive_space(ctx, args.w)
    text = "\n".join(
        [f"dimension {len(vectors)}"] + [format_element(v) for v in vectors]
    )
    _emit(args, jsonio.skew_to_json(vectors), text)
    return 0


def _cmd_grouplike(args, ctx):
    verdict = is_grouplike(parse_element(args.expr, ctx))
    _emit(args, {"grouplike": verdict}, "true" if verdict else "false")
    return 0 if verdict else 1


def _emit_equivalence(args, result):
    _emit(args, jsonio.equivalence_to_json(result),
          "equivalent" if result.equivalent else "not equivalent")
    return 0 if result.equivalent else 1


def _cmd_equiv_diag(args, ctx):
    if ctx.n <= 2:
        raise KernelError("equiv diag applies to n > 2; use equiv n2 for n = 2")
    st = make_star_diag(ctx, parse_scalar(args.alpha, ctx),
                        parse_scalar(args.beta, ctx))
    phi = equivalence_witness_diag(st)
    return _emit_equivalence(args, EquivalenceResult(True, phi, None))


def _cmd_equiv_n2(args, ctx):
    st_a = _load_star(args.a, ctx)
    st_b = _load_star(args.b, ctx)
    return _emit_equivalence(args, solve_equivalence_n2(st_a, st_b))


def _cmd_scan(args, ctx):
    grid = None
    if args.grid:
        grid = [parse_scalar(part.strip(), ctx) for part in args.grid.split(",")]
    survivors = scan_star_candidates(ctx, grid=grid)
    text = "\n".join(
        [f"survivors {len(survivors)}"]
        + [
            f"g -> {format_element(st.g_img)}; x -> {format_element(st.x_img)}; "
            f"y -> {format_element(st.y_img)}"
            for st in survivors
        ]
    )
    _emit(args, jsonio.scan_to_json(survivors), text)
    return 0


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON instead of text")
    shared.add_argument("--n", type=int, default=argparse.SUPPRESS,
                        help="order of the root of unity (required)")
    shared.add_argument("--m", type=int, default=argparse.SUPPRESS,
                        help="conductor, a multiple of lcm(4, n)")

    top = argparse.ArgumentParser(
        prog="radford",
        description="Exact kernel for the Radford Hopf algebra H_n",
    )
    top.add_argument("--n", type=int, help="order of the root of unity (required)")
    top.add_argument("--m", type=int, default=None,
                     help="conductor, a multiple of lcm(4, n)")
    top.add_argument("--json", action="store_true", default=False,
                     help="emit JSON instead of text")
    sub = top.add_subparsers(dest="command", required=True)

    def leaf(name, func, *options, group=sub):
        p = group.add_parser(name, parents=[shared])
        p.set_defaults(func=func)
        for args, kwargs in options:
            p.add_argument(*args, **kwargs)
        return p

    def group(name):
        return sub.add_parser(name).add_subparsers(dest="subcommand",
                                                   required=True)

    def opt(*args, **kwargs):
        return args, kwargs

    expr = opt("expr", help="element expression, e.g. 'x*g + w*g*x'")
    star_file = opt("--star", required=True, help="star-structure JSON file")

    leaf("normalize", _cmd_normalize, expr)
    leaf("mul", _cmd_mul, opt("lhs"), opt("rhs"))
    leaf("delta", _cmd_delta, expr)
    leaf("delta-closed", _cmd_delta, expr)
    leaf("counit", _cmd_counit, expr)
    leaf("antipode", _cmd_antipode, expr)
    leaf("antipode-order", _cmd_antipode_order)
    leaf("star-apply", _cmd_star_apply, star_file, expr)

    verify = group("verify")
    leaf("hopf", _cmd_verify_hopf, group=verify)
    leaf("star", _cmd_verify_star, star_file, group=verify)

    leaf("skew", _cmd_solve_skew,
         opt("--w", type=int, required=True,
             help="group-like exponent in D(h) = h(x)g^w + 1(x)h"),
         group=group("solve"))

    leaf("grouplike", _cmd_grouplike, expr)

    equiv = group("equiv")
    leaf("diag", _cmd_equiv_diag,
         opt("--alpha", required=True, help="scalar expression"),
         opt("--beta", required=True, help="scalar expression"), group=equiv)
    leaf("n2", _cmd_equiv_n2,
         opt("--a", required=True, help="star-structure JSON file"),
         opt("--b", required=True, help="star-structure JSON file"), group=equiv)

    leaf("scan", _cmd_scan,
         opt("--grid", default=None,
             help="comma-separated scalar expressions; default is "
                  "all m-th roots of unity and 0"))
    return top


def main(argv=None):
    top = build_parser()
    args = top.parse_args(argv)
    if not hasattr(args, "json"):
        args.json = False
    if getattr(args, "n", None) is None:
        top.error("--n is required")
    try:
        ctx = make_context(args.n, getattr(args, "m", None))
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        rc = args.func(args, ctx)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader closed stdout: exit quietly, and let the interpreter's
        # final flush of what is still buffered go to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ExprSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
