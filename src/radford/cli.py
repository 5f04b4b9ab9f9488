"""Command-line interface: `radford --n N [--m M] [--json] COMMAND ...`.

Exit codes: 0 on success / all checks passing (every equivalence query
answers "equivalent"); 1 when a verification fails; 2 on usage, parse,
or malformed-input errors, including a conductor above
``scalars.MAX_CONDUCTOR``, an input number longer than
``scalars.MAX_INPUT_DIGITS`` digits, a star that ``star-apply`` or
``equiv`` uses and that fails ``verify star`` (a star file of any
spelling, or ``equiv diag``'s --alpha and --beta), a coordinate too long
to print, and a call that does more than ``scalars.MAX_WORK`` units of
work.  ``verify star`` reports on a star file of any spelling that
decodes, and exits 1 for one that fails.  ``main`` arms the meter of
``scalars`` with that budget afresh for every call, so such a refusal
comes after at most the budget's work, about a second, whatever the
input.  A value that starts with '-' is written ``--beta=-i`` after an
option and after ``--`` as a positional (``normalize -- -x``), as
argparse reads ``-x`` as an option.
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
    return "\n".join(map(str, report.checks))


def _load_stars(ctx, *paths):
    """The star files, decoded into the one context of the call: order n and
    conductor lcm(--m, every file's m)."""
    import json
    import math

    objs, conductors = [], []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as f:
                obj = json.load(f)
        except OSError as exc:
            raise KernelError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:
            # Bad syntax, bad UTF-8, or an integer past Python's digit limit.
            raise KernelError(f"{path} is not valid JSON: {exc}") from exc
        own = jsonio.star_context(obj)
        if own.n != ctx.n:
            raise KernelError(
                f"star structure has n={own.n}, command requested n={ctx.n}")
        # A file that does not fit with --m alone is refused at once, with
        # the conductor of that pair.
        conductors.append(scalars.make_context(ctx.n, math.lcm(ctx.m, own.m)).m)
        objs.append(obj)
    ctx = scalars.make_context(ctx.n, math.lcm(*conductors))
    return [jsonio.star_from_json(obj, ctx) for obj in objs]


def _emit_element(args, e):
    _emit(args, lambda: jsonio.element_to_json(e),
          lambda: parser.format_element(e))
    return 0


def _cmd_normalize(args, ctx):
    return _emit_element(args, parser.parse_element(args.expr, ctx))


def _cmd_mul(args, ctx):
    return _emit_element(args, parser.parse_product([args.lhs, args.rhs], ctx))


def _cmd_delta(args, ctx):
    t = coalgebra.delta(parser.parse_element(args.expr, ctx))
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
    [st] = _load_stars(ctx, args.star)
    star.require_star(st)
    return _emit_element(args, star.apply_map(
        st, parser.parse_element(args.expr, st.ctx)))


def _cmd_verify_hopf(args, ctx):
    report = star.verify_hopf_axioms(ctx)
    _emit(args, lambda: jsonio.report_to_json(report),
          lambda: _report_lines(report))
    return 0 if report.all_passed else 1


def _cmd_verify_star(args, ctx):
    [st] = _load_stars(ctx, args.star)
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


def _emit_equivalence(args, phi):
    _emit(args, lambda: jsonio.equivalence_to_json(phi), lambda: "equivalent")
    return 0


def _cmd_equiv_diag(args, ctx):
    alpha, beta = (parser.parse_scalar(v, ctx) for v in (args.alpha, args.beta))
    zero, one = ctx.zero, ctx.one
    st = star.GeneratorMap.from_matrix(ctx, (alpha, zero, zero, beta))
    trivial = star.GeneratorMap.from_matrix(ctx, (one, zero, zero, one))
    return _emit_equivalence(args, classify.equivalence_witness(st, trivial))


def _cmd_equiv_n2(args, ctx):
    return _emit_equivalence(args, classify.equivalence_witness(
        *_load_stars(ctx, args.a, args.b)))


def _scan_lines(survivors):
    fmt = parser.format_element
    return "\n".join(
        [f"survivors {len(survivors)}"]
        + [f"g -> {fmt(st.g_img)}; x -> {fmt(st.x_img)}; y -> {fmt(st.y_img)}"
           for st in survivors])


def _cmd_scan(args, ctx):
    grid = None
    if args.grid is not None:
        grid = parser.parse_scalars(
            [part.strip() for part in args.grid.split(",")], ctx)
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
        leaf.add_argument("--n", type=_integer, default=argparse.SUPPRESS,
                          help="order of the root of unity (required)")
        leaf.add_argument("--m", type=_integer, default=argparse.SUPPRESS,
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


def _integer(text):
    """The int spelled by ``text``: ASCII digits after an optional '-'.
    int() alone also reads other Unicode digits, '_', '+' and spaces."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's limit on digits
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def build_parser():
    top = argparse.ArgumentParser(
        prog="radford",
        description="Exact kernel for the Radford Hopf algebra H_n",
    )
    top.add_argument("--n", type=_integer, help="order of the root of unity (required)")
    top.add_argument("--m", type=_integer, default=None,
                     help="conductor, a multiple of lcm(4, n)")
    top.add_argument("--json", action="store_true", default=False,
                     help="emit JSON instead of text")

    expr = _opt("expr", help="element expression, e.g. 'x*g + w*g*x'; write -- "
                             "before it when it starts with '-': normalize -- -x")
    operand = "element expression; write -- before both when one starts with '-'"
    scalar = "scalar expression; write --beta=-i when it starts with '-'"
    star_file = _opt("--star", required=True, help="star-structure JSON file")
    _add_commands(top, "command", {
        "normalize": _leaf(_cmd_normalize, expr),
        "mul": _leaf(_cmd_mul, _opt("lhs", help=operand), _opt("rhs", help=operand)),
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
                "--w", type=_integer, required=True,
                help="group-like exponent in D(h) = h(x)g^w + 1(x)h")),
        }),
        "grouplike": _leaf(_cmd_grouplike, expr),
        "equiv": _group({
            "diag": _leaf(_cmd_equiv_diag,
                          _opt("--alpha", required=True, help=scalar),
                          _opt("--beta", required=True, help=scalar)),
            "n2": _leaf(_cmd_equiv_n2,
                        _opt("--a", required=True, help="star-structure JSON file"),
                        _opt("--b", required=True, help="star-structure JSON file")),
        }),
        "scan": _leaf(_cmd_scan, _opt(
            "--grid", default=None,
            help="comma-separated scalar expressions; write --grid=-1,1 "
                 "when the first one starts with '-'; default is all m-th "
                 "roots of unity and 0")),
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
    # Every call gets the whole budget of work, and only the call does.
    scalars._meter.arm(scalars.MAX_WORK)
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
    finally:
        scalars._meter.disarm()


if __name__ == "__main__":
    sys.exit(main())
