"""Fuzz `cli.main` with random expressions, flags and star files.

Every run must end in exit code 0, 1 or 2 with no exception escaping
`main` and no traceback on stderr.  Contexts stay at n <= 4 and the
example counts are bounded so the whole module runs in a few seconds.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import make_star_diag, make_star_matrix, star_json
from radford.algebra import Element
from radford.cli import main
from radford.scalars import make_context
from radford.star import GeneratorMap

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    assert rc in (0, 1, 2), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return rc


# -- expressions ----------------------------------------------------------------

atoms = st.one_of(
    st.sampled_from(list("gxyiwz")),
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
)
grammar_exprs = st.recursive(atoms, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map("".join),
    st.tuples(inner, st.sampled_from([0, 1, 2, 5, 40, 10**5, 10**9]))
    .map(lambda t: f"({t[0]})^{t[1]}"),
    st.tuples(st.sampled_from(list("gxyz")), st.integers(0, 10**9))
    .map(lambda t: f"{t[0]}^{t[1]}"),
    inner.map(lambda e: f"-{e}"),
), max_leaves=8)
junk_exprs = st.text(alphabet="gxyiwz0123456789+-*^()/ .q\u00b2\u0663\uff11", max_size=20)
exprs = st.one_of(grammar_exprs, junk_exprs)

contexts = st.one_of(
    st.tuples(st.integers(-1, 4), st.just(None)),
    st.tuples(st.integers(2, 4), st.sampled_from([0, 8, 12, 24, 10**6])),
)


def context_args(ctx, json_out):
    n, m = ctx
    return (["--n", str(n)] + ([] if m is None else ["--m", str(m)])
            + (["--json"] if json_out else []))


@FUZZ
@given(ctx=contexts, json_out=st.booleans(), a=exprs, b=exprs,
       command=st.sampled_from(["normalize", "delta", "counit", "antipode",
                                "grouplike", "mul", "equiv", "scan"]))
def test_random_expressions(ctx, json_out, a, b, command):
    if command == "mul":
        tail = ["mul", a, b]
    elif command == "equiv":
        tail = ["equiv", "diag", "--alpha", a, "--beta", b]
    elif command == "scan":
        tail = ["scan", "--grid", f"{a},{b}"]
    else:
        tail = [command, a]
    run_main(context_args(ctx, json_out) + tail)


# -- star files -------------------------------------------------------------------

def _valid_stars():
    c2, c3 = make_context(2), make_context(3)
    gens = [Element.monomial(c3, *mono) for mono in ((0, 0, 1), (0, 1, 0), (1, 0, 0))]
    return [star_json(make_star_diag(c3, c3.omega(), c3.one), "diag"),
            star_json(make_star_matrix(c2, (c2.zero, c2.one, c2.one, c2.zero)), "matrix2"),
            star_json(GeneratorMap(c3, *gens), "raw")]


VALID_STARS = _valid_stars()
KEYS = ["kind", "context", "n", "m", "alpha", "beta", "a", "g_img", "x_img",
        "y_img", "terms", "r", "s", "l", "coeff"]
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 10), st.floats(allow_nan=True),
    st.sampled_from(["", "0", "1", "-1", "1/2", "1/0", "x", "diag", "raw",
                     "matrix2", "9" * 1200]),
)
json_values = st.recursive(json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
), max_leaves=10)


def _paths(obj, prefix=()):
    yield prefix
    children = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, val in children:
        yield from _paths(val, prefix + (key,))


def _replace(obj, path, value):
    if not path:
        return value
    parent = json.loads(json.dumps(obj))
    node = parent
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return parent


_DELETE = object()


@st.composite
def star_files(draw):
    obj = draw(st.sampled_from(VALID_STARS))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        path = draw(st.sampled_from(paths))
        value = draw(st.one_of(json_values, st.just(_DELETE))) if path \
            else draw(json_values)
        obj = _replace(obj, path, value)
    text = json.dumps(obj)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


@FUZZ
@given(text=star_files(), n=st.integers(2, 3), json_out=st.booleans(),
       apply=st.booleans())
def test_malformed_star_files(text, n, json_out, apply):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        tail = ["star-apply", "--star", path, "x+y*g"] if apply \
            else ["verify", "star", "--star", path]
        run_main(context_args((n, None), json_out) + tail)
    finally:
        os.unlink(path)
