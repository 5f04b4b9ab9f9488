"""Command-line interface: `radford --n N [--m M] [--json] COMMAND ...`.

Exit codes: 0 on success / all checks passing (every equivalence query
answers "equivalent"); 1 when a verification fails; 2 on usage, parse,
or malformed-input errors, including a conductor above
``scalars.MAX_CONDUCTOR``, an input number or expression that can
exceed ``scalars.MAX_INPUT_DIGITS`` digits, an expression whose
products exceed ``parser.MAX_EXPR_COORDS`` field coordinates, a scan of
more than ``scalars.MAX_SCAN_CANDIDATES`` candidates and a coproduct
that needs more than ``scalars.MAX_DELTA_COORDS`` field coordinates.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

from .errors import ExprSyntaxError, KernelError


def _lazy_layer(name):
    """The layer ``radford.<name>``, registered in sys.modules; its body runs
    (and its source is compiled) when something first reads an attribute."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # Bind it on the package as an import would, so that `from . import
        # name` finds it there instead of importing, which would load it.
        setattr(sys.modules[__package__], name, module)
    return module


# Every layer is in sys.modules after `import radford.cli` (the benchmark's
# tracer looks them up there), but a call runs only the layers its command
# reaches.  An import statement naming a layer's functions would run it now.
scalars, algebra, coalgebra, star, solver, classify, parser, jsonio = map(
    _lazy_layer, ("scalars", "algebra", "coalgebra", "star", "solver",
                  "classify", "parser", "jsonio"))


def _emit(args, payload, text):
    """Print ``text()``, or under --json the JSON of ``payload()``."""
    if args.json:
        import json

        print(json.dumps(payload()))
    else:
        print(text())


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
    return st.embed(scalars.unify_contexts(st.ctx, ctx))


def _emit_element(args, e):
    _emit(args, lambda: jsonio.element_to_json(e),
          lambda: parser.format_element(e))
    return 0


def _cmd_normalize(args, ctx):
    return _emit_element(args, parser.parse_element(args.expr, ctx))


def _cmd_mul(args, ctx):
    lhs, rhs = (parser.parse_element(text, ctx) for text in (args.lhs, args.rhs))
    return _emit_element(args, lhs * rhs)


def _cmd_delta(args, ctx):
    e = parser.parse_element(args.expr, ctx)
    size = coalgebra.delta_coords(e)
    if size > scalars.MAX_DELTA_COORDS:
        raise KernelError(f"the coproduct needs {size} field coordinates, "
                          f"above the limit {scalars.MAX_DELTA_COORDS}")
    t = coalgebra.delta(e)
    _emit(args, lambda: jsonio.tensor_to_json(t), lambda: parser.format_tensor(t))
    return 0


def _cmd_counit(args, ctx):
    c = coalgebra.counit(parser.parse_element(args.expr, ctx))
    _emit(args, lambda: {"context": jsonio.context_to_json(ctx),
                         "coords": jsonio.scalar_to_json(c)},
          lambda: parser.format_scalar(c))
    return 0


def _cmd_antipode(args, ctx):
    return _emit_element(args, coalgebra.antipode(
        parser.parse_element(args.expr, ctx)))


def _cmd_antipode_order(args, ctx):
    k = coalgebra.antipode_order(ctx)
    _emit(args, lambda: {"order": k}, lambda: str(k))
    return 0


def _cmd_star_apply(args, ctx):
    st = _load_star(args.star, ctx)
    return _emit_element(args, star.apply_star(
        st, parser.parse_element(args.expr, st.ctx)))


def _cmd_verify_hopf(args, ctx):
    report = star.verify_hopf_axioms(ctx)
    _emit(args, lambda: jsonio.report_to_json(report),
          lambda: _report_lines(report))
    return 0 if report.all_passed else 1


def _cmd_verify_star(args, ctx):
    st = _load_star(args.star, ctx)
    report = star.verify_star_axioms(st)
    _emit(args, lambda: jsonio.report_to_json(report),
          lambda: _report_lines(report))
    return 0 if report.all_passed else 1


def _cmd_solve_skew(args, ctx):
    vectors = solver.skew_primitive_space(ctx, args.w)
    _emit(args, lambda: jsonio.skew_to_json(vectors), lambda: "\n".join(
        [f"dimension {len(vectors)}"]
        + [parser.format_element(v) for v in vectors]))
    return 0


def _cmd_grouplike(args, ctx):
    verdict = solver.is_grouplike(parser.parse_element(args.expr, ctx))
    _emit(args, lambda: {"grouplike": verdict},
          lambda: "true" if verdict else "false")
    return 0 if verdict else 1


def _emit_equivalence(args, result):
    _emit(args, lambda: jsonio.equivalence_to_json(result), lambda: "equivalent")
    return 0


def _cmd_equiv_diag(args, ctx):
    if ctx.n <= 2:
        raise KernelError("equiv diag applies to n > 2; use equiv n2 for n = 2")
    st = star.make_star_diag(ctx, parser.parse_scalar(args.alpha, ctx),
                             parser.parse_scalar(args.beta, ctx))
    phi = classify.equivalence_witness_diag(st)
    return _emit_equivalence(args, classify.EquivalenceResult(True, phi))


def _cmd_equiv_n2(args, ctx):
    st_a = _load_star(args.a, ctx)
    st_b = _load_star(args.b, ctx)
    return _emit_equivalence(args, classify.solve_equivalence_n2(st_a, st_b))


def _scan_lines(survivors):
    fmt = parser.format_element
    return "\n".join(
        [f"survivors {len(survivors)}"]
        + [f"g -> {fmt(st.g_img)}; x -> {fmt(st.x_img)}; y -> {fmt(st.y_img)}"
           for st in survivors])


def _cmd_scan(args, ctx):
    grid = None
    if args.grid:
        grid = [parser.parse_scalar(part.strip(), ctx)
                for part in args.grid.split(",")]
    survivors = classify.scan_star_candidates(ctx, grid=grid)
    _emit(args, lambda: jsonio.scan_to_json(survivors),
          lambda: _scan_lines(survivors))
    return 0


class _OnDemand(dict):
    """Subparsers by command name, each built on its first lookup.

    argparse reads only the names to print usage, help and "invalid choice"
    errors, so a call builds just the subparsers of the command it runs.
    """

    def __init__(self, prog, factories):
        super().__init__(dict.fromkeys(factories))
        self._prog = prog
        self._factories = factories

    def __getitem__(self, name):
        built = dict.__getitem__(self, name)
        if built is None:
            built = self[name] = self._factories[name](f"{self._prog} {name}")
        return built


def _add_commands(argparser, dest, factories):
    sub = argparser.add_subparsers(dest=dest, required=True)
    # argparse keeps one dict as both the valid choices and the name ->
    # subparser map, and looks a name up only once it is chosen.
    sub.choices = sub._name_parser_map = _OnDemand(argparser.prog, factories)


def _leaf(func, *options):
    """Factory of a command's parser: the shared options, then its own."""
    def build(prog):
        leaf = argparse.ArgumentParser(prog=prog)
        leaf.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                          help="emit JSON instead of text")
        leaf.add_argument("--n", type=int, default=argparse.SUPPRESS,
                          help="order of the root of unity (required)")
        leaf.add_argument("--m", type=int, default=argparse.SUPPRESS,
                          help="conductor, a multiple of lcm(4, n)")
        leaf.set_defaults(func=func)
        for args, kwargs in options:
            leaf.add_argument(*args, **kwargs)
        return leaf
    return build


def _group(factories):
    """Factory of a command with subcommands, such as ``verify``."""
    def build(prog):
        group = argparse.ArgumentParser(prog=prog)
        _add_commands(group, "subcommand", factories)
        return group
    return build


def _opt(*args, **kwargs):
    return args, kwargs


def build_parser():
    top = argparse.ArgumentParser(
        prog="radford",
        description="Exact kernel for the Radford Hopf algebra H_n",
    )
    top.add_argument("--n", type=int, help="order of the root of unity (required)")
    top.add_argument("--m", type=int, default=None,
                     help="conductor, a multiple of lcm(4, n)")
    top.add_argument("--json", action="store_true", default=False,
                     help="emit JSON instead of text")

    expr = _opt("expr", help="element expression, e.g. 'x*g + w*g*x'")
    star_file = _opt("--star", required=True, help="star-structure JSON file")
    _add_commands(top, "command", {
        "normalize": _leaf(_cmd_normalize, expr),
        "mul": _leaf(_cmd_mul, _opt("lhs"), _opt("rhs")),
        "delta": _leaf(_cmd_delta, expr),
        "delta-closed": _leaf(_cmd_delta, expr),
        "counit": _leaf(_cmd_counit, expr),
        "antipode": _leaf(_cmd_antipode, expr),
        "antipode-order": _leaf(_cmd_antipode_order),
        "star-apply": _leaf(_cmd_star_apply, star_file, expr),
        "verify": _group({
            "hopf": _leaf(_cmd_verify_hopf),
            "star": _leaf(_cmd_verify_star, star_file),
        }),
        "solve": _group({
            "skew": _leaf(_cmd_solve_skew, _opt(
                "--w", type=int, required=True,
                help="group-like exponent in D(h) = h(x)g^w + 1(x)h")),
        }),
        "grouplike": _leaf(_cmd_grouplike, expr),
        "equiv": _group({
            "diag": _leaf(_cmd_equiv_diag,
                          _opt("--alpha", required=True, help="scalar expression"),
                          _opt("--beta", required=True, help="scalar expression")),
            "n2": _leaf(_cmd_equiv_n2,
                        _opt("--a", required=True, help="star-structure JSON file"),
                        _opt("--b", required=True, help="star-structure JSON file")),
        }),
        "scan": _leaf(_cmd_scan, _opt(
            "--grid", default=None,
            help="comma-separated scalar expressions; default is "
                 "all m-th roots of unity and 0")),
    })
    return top


def main(argv=None):
    top = build_parser()
    args = top.parse_args(argv)
    if not hasattr(args, "json"):
        args.json = False
    if getattr(args, "n", None) is None:
        top.error("--n is required")
    try:
        ctx = scalars.make_context(args.n, getattr(args, "m", None))
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
