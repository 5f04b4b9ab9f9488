"""Traced runner and span summary: the per-layer half of the benchmark.

Run as a script, it is one traced operation:

    python3 perfbench/tracing.py SPANS_FILE -- ARGV...

It imports ``radford.cli`` (timed), wraps the public functions of the
layer modules, rebinds every ``radford.*`` module attribute that was bound
to an original by ``from ... import``, and calls ``radford.cli.main(ARGV)``
with the same argv the untraced run used.  Spans (name, start, end,
parent) stay in memory and are written to SPANS_FILE once, at exit.

Arithmetic dunders and a few hot methods are too frequent for one span
per call (``verify hopf`` at n = 6 makes ~500k scalar products).  They are
"folded": counted and timed per name, and their time is charged to the
enclosing span, so self times still add up.  A hot wrapper never encloses
a span except through the ``in_hot`` flag recorded on that span.

``summarize`` turns the span files of a run into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from time import perf_counter

LAYERS = ("scalars", "algebra", "coalgebra", "star", "solver", "classify",
          "parser", "jsonio")

# class name, {method: folded name}
HOT = {
    "scalars": ("CyclotomicScalar", {
        "__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
        "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg", "__pow__": "pow",
        "__truediv__": "div", "__rtruediv__": "div", "inverse": "inverse",
        "conjugate": "conjugate", "embed": "embed", "is_norm_one": "is_norm_one"}),
    "algebra": ("Element", {
        "__mul__": "element_mul", "__add__": "element_add", "__sub__": "element_sub",
        "__neg__": "element_neg", "scale": "element_scale", "__pow__": "element_pow",
        "embed": "element_embed"}),
    "coalgebra": ("TensorElement", {
        "__add__": "tensor_add", "__sub__": "tensor_sub", "__neg__": "tensor_neg",
        "scale": "tensor_scale"}),
}

# Private eliminations behind the public nullspace entry points.
EXTRA_SPANS = {"solver": ("_nullspace_from_rows", "_rational_kernel")}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []      # [name id, start, end, parent span, folded s, in_hot]
        self.hot = {}        # folded name -> [calls, self s]
        self.counters = {}
        self.stack = []      # frames: [span index or -1, child span s, child hot s]
        self.current = -1    # innermost open span

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name, fn, after=None):
        nid = self.name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            in_hot = 1 if stack and stack[-1][0] < 0 else 0
            idx = len(spans)
            rec = [nid, 0.0, 0.0, self.current, 0.0, in_hot]
            spans.append(rec)
            frame = [idx, 0.0, 0.0]
            stack.append(frame)
            outer, self.current = self.current, idx
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                self.current = outer
                rec[4] = frame[2]
                if stack:
                    stack[-1][1] += end - rec[1]
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def folded(self, name, fn, before=None):
        agg = self.hot.setdefault(name, [0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args):
            if before is not None:
                before(self, args)
            frame = [-1, 0.0, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - start
                stack.pop()
                agg[0] += 1
                agg[1] += dt - frame[1] - frame[2]
                if stack:
                    stack[-1][2] += dt

        return wrapper


# -- counters taken at the call boundary ---------------------------------------

def _mul_roots(tracer, args):
    a, b = args
    ctx = a.ctx
    if (getattr(b, "ctx", None) is ctx and ctx.zeta_log(a) is not None
            and ctx.zeta_log(b) is not None):
        tracer.count("scalars.mul.roots")


def _element_pairs(tracer, args):
    a, b = args
    if hasattr(b, "terms"):
        tracer.count("algebra.element_mul.term_pairs", len(a.terms) * len(b.terms))


def _tensor_pairs(tracer, args, result):
    tracer.count("coalgebra.tensor_mul.term_pairs",
                 len(args[0].terms) * len(args[1].terms))


def _kernel(tracer, args, result):
    tracer.count("solver.kernels")
    tracer.count("solver.kernel_dim_sum", len(result))


def _survivors(tracer, args, result):
    tracer.count("classify.scan.survivors", len(result))


AFTER = {
    "coalgebra.tensor_mul": _tensor_pairs,
    "solver._nullspace_from_rows": _kernel,
    "solver._rational_kernel": _kernel,
    "classify.scan_star_candidates": _survivors,
}
BEFORE = {"scalars.mul": _mul_roots, "algebra.element_mul": _element_pairs}


def install(tracer):
    """Wrap every layer's public functions and hot methods; rebind imports."""
    import radford.cli

    replaced = {}
    for layer in LAYERS:
        mod = sys.modules[f"radford.{layer}"]
        names = [n for n, obj in vars(mod).items()
                 if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                 and not n.startswith("_")]
        for n in names + list(EXTRA_SPANS.get(layer, ())):
            full = f"{layer}.{n}"
            orig = getattr(mod, n)
            wrapped = tracer.span(full, orig, AFTER.get(full))
            replaced[id(orig)] = (orig, wrapped)
            setattr(mod, n, wrapped)
        if layer in HOT:
            cls_name, methods = HOT[layer]
            cls = getattr(mod, cls_name)
            for meth, short in methods.items():
                full = f"{layer}.{short}"
                setattr(cls, meth, tracer.folded(full, vars(cls)[meth], BEFORE.get(full)))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "radford" or mod_name.startswith("radford."):
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
    return tracer.span("cli.main", radford.cli.main)


def _run(spans_path, argv):
    tracer = Tracer()
    t0 = perf_counter()
    import radford.cli  # noqa: F401  (timed import)
    t1 = perf_counter()
    main = install(tracer)
    t2 = perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    t3 = perf_counter()
    sys.stdout.flush()
    payload = json.dumps({
        "argv": argv, "import_s": t1 - t0, "install_s": t2 - t1,
        "main_s": t3 - t2, "names": tracer.names, "spans": tracer.spans,
        "hot": tracer.hot, "counters": tracer.counters,
    })
    with open(spans_path, "w", encoding="utf-8") as f:
        f.write(payload + "\n")
        f.flush()
        f.write(json.dumps({"dump_s": perf_counter() - t3}) + "\n")
    return rc


# -- summary ----------------------------------------------------------------------

def _named(*names):
    return set(names).__contains__


TIME_GROUPS = {
    "scalars.make_context.s": _named("scalars.make_context"),
    "star.verify_hopf_axioms.s": _named("star.verify_hopf_axioms"),
    "star.verify_star_axioms.s": _named("star.verify_star_axioms"),
    "solver.skew_primitive_space.s": _named("solver.skew_primitive_space"),
    "solver.field_nullspace.s": _named("solver.field_nullspace",
                                       "solver._nullspace_from_rows"),
    "solver.rational_nullspace.s": _named("solver.rational_nullspace",
                                          "solver._rational_kernel"),
    "classify.equivalence_witness_diag.s": _named("classify.equivalence_witness_diag"),
    "classify.solve_equivalence_n2.s": _named("classify.solve_equivalence_n2"),
    "classify.scan_star_candidates.s": _named("classify.scan_star_candidates"),
    "parser.parse.s": _named("parser.parse", "parser.parse_element",
                             "parser.parse_scalar", "parser.evaluate"),
    "parser.format.s": _named("parser.format_scalar", "parser.format_element",
                              "parser.format_tensor"),
    "jsonio.decode.s": lambda n: n.startswith("jsonio.") and n.endswith("_from_json"),
    "jsonio.encode.s": lambda n: n.startswith("jsonio.") and n.endswith("_to_json"),
}
CALLS = ("scalars.mul", "scalars.inverse", "scalars.conjugate", "scalars.make_context",
         "algebra.element_mul", "coalgebra.delta", "coalgebra.tensor_mul",
         "coalgebra.antipode", "star.apply_star", "classify.verify_equivalence")


def read_spans(path):
    with open(path, encoding="utf-8") as f:
        payload = json.loads(f.readline())
        payload.update(json.loads(f.readline()))
    return payload


def _outermost(names, spans, member):
    """Total duration of spans whose name is a ``member``, not nested in
    another member's span."""
    hit = [member(n) for n in names]
    covered = [False] * len(spans)
    total = 0.0
    for i, (nid, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            covered[i] = covered[parent] or hit[spans[parent][0]]
        if hit[nid] and not covered[i]:
            total += end - start
    return total


def _nested_count(names, spans, inner, outer):
    """How many ``inner`` spans run inside an ``outer`` span."""
    inside = [False] * len(spans)
    count = 0
    for i, (nid, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or names[spans[parent][0]] == outer
        if inside[i] and names[nid] == inner:
            count += 1
    return count


def summarize(records):
    """Per-layer metrics from [(span payload, parent-measured wall s)].

    Times and counts are means per operation; ratios are over the run.
    """
    tot = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value

    for p, wall in records:
        names, spans = p["names"], p["spans"]
        child = [0.0] * len(spans)
        for nid, start, end, parent, _, in_hot in spans:
            if parent >= 0 and not in_hot:
                child[parent] += end - start
        for i, (nid, start, end, _, folded, _) in enumerate(spans):
            name = names[nid]
            add(name.split(".")[0] + ".self_s", end - start - child[i] - folded)
            add(name + ".calls", 1)
        for name, (calls, self_s) in p["hot"].items():
            add(name.split(".")[0] + ".self_s", self_s)
            add(name + ".calls", calls)
        for key, value in p["counters"].items():
            add(key, value)
        for metric, member in TIME_GROUPS.items():
            add(metric, _outermost(names, spans, member))
        add("scan.verify_calls", _nested_count(
            names, spans, "star.verify_star_axioms", "classify.scan_star_candidates"))
        add("n2.automorphisms", _nested_count(
            names, spans, "classify.make_automorphism_matrix",
            "classify.solve_equivalence_n2"))
        add("cli.import_s", p["import_s"])
        add("cli.main_s", p["main_s"])
        add("cli.outside_main_s", wall - p["main_s"] - p["install_s"] - p["dump_s"])

    ops = len(records)

    def ratio(num, den):
        return tot.get(num, 0.0) / tot[den] if tot.get(den) else 0.0

    out = {}
    for key in ("cli.import_s", "cli.main_s", "cli.outside_main_s"):
        out[key] = tot[key] / ops
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tot.get(f"{layer}.self_s", 0.0) / ops
    for name in CALLS:
        out[f"{name}.calls"] = tot.get(f"{name}.calls", 0.0) / ops
    for metric in TIME_GROUPS:
        out[metric] = tot[metric] / ops
    out["scalars.mul.root_share"] = ratio("scalars.mul.roots", "scalars.mul.calls")
    out["algebra.element_mul.term_pairs"] = tot.get("algebra.element_mul.term_pairs", 0) / ops
    out["coalgebra.tensor_mul.term_pairs"] = tot.get("coalgebra.tensor_mul.term_pairs", 0) / ops
    out["solver.kernel_dim"] = ratio("solver.kernel_dim_sum", "solver.kernels")
    out["classify.n2_candidates_tried"] = ratio(
        "n2.automorphisms", "classify.solve_equivalence_n2.calls")
    out["classify.scan.survivor_ratio"] = ratio("classify.scan.survivors", "scan.verify_calls")
    return out


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracing.py SPANS_FILE -- ARGV...")
    sys.exit(_run(sys.argv[1], sys.argv[3:]))
