"""Start-up cost guard: what a fresh interpreter loads and runs for a call.

Every `radford ...` call is a fresh process, so a heavy import is paid on
each one.  `dataclasses` brings `inspect`, `ast` and `dis` with it, and
`json` is only needed under --json or when a file is read.

The eight layer modules must all be in `sys.modules` after
`import radford.cli`, because the benchmark's tracer looks them up there.
But `cli` registers them lazily: a layer's body runs, and its source is
compiled, only when a command first reads one of its attributes.  So each
command runs only the layers it reaches, and `import radford` runs none.
"""

import ast
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HEAVY = {"dataclasses", "inspect", "ast", "dis", "json"}
LAYERS = ("scalars", "algebra", "coalgebra", "star", "solver", "classify",
          "parser", "jsonio")
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Prints the layers whose bodies ran.  `type` does not trigger a lazy
# module, and a lazy module is a subclass of ModuleType until it runs.
RAN = ("import types\n"
       "print(' '.join(sorted(\n"
       "    name.removeprefix('radford.') for name, mod in sys.modules.items()\n"
       "    if name.startswith('radford.') and type(mod) is types.ModuleType)))\n")


def last_line(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_import_skips_heavy_modules_and_loads_every_layer():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import radford.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    new = set(last_line(code).split())
    assert not new & HEAVY, sorted(new & HEAVY)
    assert {f"radford.{layer}" for layer in LAYERS} <= new


@pytest.mark.parametrize("argv, untouched", [
    (["--n", "3", "normalize", "x"],
     {"coalgebra", "star", "solver", "classify", "jsonio"}),
    (["--n", "3", "--json", "normalize", "x"],
     {"coalgebra", "star", "solver", "classify"}),
    (["--n", "5", "verify", "hopf"], {"solver", "classify", "parser", "jsonio"}),
    (["--n", "3", "scan", "--grid", "0,1"], {"coalgebra", "solver", "jsonio"}),
    (["--n", "4", "antipode-order"],
     {"star", "solver", "classify", "parser", "jsonio"}),
    (["--n", "4", "equiv", "diag", "--alpha", "w", "--beta", "-1"],
     {"coalgebra", "solver", "jsonio"}),
    (["--n", "2", "verify", "star", "--star", "diag_i"],
     {"solver", "classify", "parser"}),
    # The gate admits a member of the paper's family without the verifier,
    # which would run coalgebra.
    (["--n", "2", "star-apply", "--star", "diag_i", "x"],
     {"coalgebra", "solver", "classify"}),
])
def test_command_runs_only_the_layers_it_reaches(argv, untouched, tmp_path):
    argv = n2_star_files(tmp_path, argv)
    code = ("import sys\n"
            "import radford.cli\n"
            f"assert radford.cli.main({argv!r}) == 0\n" + RAN)
    ran = set(last_line(code).split())
    assert "scalars" in ran
    assert not ran & untouched, sorted(ran & untouched)


# Star files at n = 2, m = 4, but for their context: three matrix2 files,
# each a matrix row-major, and diag(i, -1).
N2_STARS = {"ident": {"kind": "matrix2",
                      "a": [["1", "0"], ["0", "0"], ["0", "0"], ["1", "0"]]},
            "swap": {"kind": "matrix2",
                     "a": [["0", "0"], ["0", "1"], ["0", "1"], ["0", "0"]]},
            "diag_i_1": {"kind": "matrix2",
                         "a": [["0", "1"], ["0", "0"], ["0", "0"], ["1", "0"]]},
            "diag_i": {"kind": "diag", "alpha": ["0", "1"], "beta": ["-1", "0"]}}


def n2_star_files(tmp_path, argv):
    """``argv`` with each name of N2_STARS replaced by the path of the
    file of that star."""
    out = []
    for arg in argv:
        if arg in N2_STARS:
            path = tmp_path / f"{arg}.json"
            path.write_text(json.dumps({"context": {"n": 2, "m": 4}, **N2_STARS[arg]}))
            arg = str(path)
        out.append(arg)
    return out


# Rationals cross the kernel's boundaries as integers, so these calls never
# import `fractions`, which brings `decimal` and `numbers` with it.  The
# witnesses of the last two, L_A conj(L_B) / 4, build their 1/4 as an integer
# numerator over the denominator 4.
@pytest.mark.parametrize("argv", [
    ["--n", "5", "verify", "hopf"],
    ["--n", "3", "--json", "normalize", "x"],
    ["--n", "3", "--json", "equiv", "diag", "--alpha", "w", "--beta", "-1"],
    ["--n", "2", "equiv", "n2", "--a", "ident", "--b", "diag_i_1"],
])
def test_command_leaves_fractions_unloaded(argv, tmp_path):
    argv = n2_star_files(tmp_path, argv)
    code = ("import sys\n"
            "import radford.cli\n"
            f"assert radford.cli.main({argv!r}) == 0\n"
            "print(' '.join(sorted({'fractions', 'decimal', 'numbers'}"
            " & set(sys.modules))))\n")
    assert last_line(code) == ""


def test_equiv_n2_runs_no_solver(tmp_path):
    # The n = 2 witness is a closed form: no linear system is solved.
    argv = n2_star_files(tmp_path, ["--n", "2", "equiv", "n2", "--a", "ident",
                                    "--b", "swap"])
    code = ("import sys\n"
            "import radford.cli\n"
            f"assert radford.cli.main({argv!r}) == 0\n" + RAN)
    ran = set(last_line(code).split())
    assert "classify" in ran
    assert "solver" not in ran


def test_package_import_runs_no_layer():
    assert last_line("import sys\nimport radford\n" + RAN) == ""


def test_tracer_finds_the_layers(tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "--", "--n", "3", "normalize", "x"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "x\n"
    with open(spans, encoding="utf-8") as f:
        names = json.loads(f.readline())["names"]
    assert "parser.parse_element" in names



ROOT = Path(__file__).resolve().parents[1]


def _public_definitions(tree):
    """Public top-level names of a module, each with its defining node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for leaf in (n for t in targets for n in ast.walk(t)):
                if isinstance(leaf, ast.Name):
                    out[leaf.id] = node
    return {name: node for name, node in out.items() if not name.startswith("_")}


def _references(node):
    """How often each name is read under ``node``: as a name, an attribute
    or an imported name."""
    seen = Counter()
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name) and not isinstance(leaf.ctx, ast.Store):
            seen[leaf.id] += 1
        elif isinstance(leaf, ast.Attribute):
            seen[leaf.attr] += 1
        elif isinstance(leaf, ast.alias):
            seen[leaf.name.rpartition(".")[2]] += 1
    return seen


def test_every_public_name_is_used():
    # Test-only helpers belong in tests/oracles.py: each public top-level
    # name of the package must be read in the package or the benchmark,
    # outside its own definition, or be named in a code span of the
    # README.  Plain README prose does not count: "generators" and
    # "basis" are words of it.
    package = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / "src" / "radford").glob("*.py"))}
    bench = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "perfbench").glob("*.py"))]
    total = sum((_references(t) for t in [*package.values(), *bench]), Counter())
    spans = re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text(encoding="utf-8"))
    readme = {word for span in spans for word in re.findall(r"\w+", span)}
    unused = [f"{module}.{name}" for module, tree in package.items()
              for name, node in _public_definitions(tree).items()
              if name not in readme and total[name] == _references(node)[name]]
    assert not unused, unused
