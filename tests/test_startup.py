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

import json
import subprocess
import sys
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
    (["--n", "3", "scan", "--grid", "0,1"], {"solver", "jsonio"}),
])
def test_command_runs_only_the_layers_it_reaches(argv, untouched):
    code = ("import sys\n"
            "import radford.cli\n"
            f"assert radford.cli.main({argv!r}) == 0\n" + RAN)
    ran = set(last_line(code).split())
    assert "scalars" in ran
    assert not ran & untouched, sorted(ran & untouched)


def test_equiv_n2_runs_no_solver(tmp_path):
    # The n = 2 witness is a closed form: no linear system is solved.
    paths = []
    for name, a in (("a", [["1", "0"], ["0", "0"], ["0", "0"], ["1", "0"]]),
                    ("b", [["0", "0"], ["0", "1"], ["0", "1"], ["0", "0"]])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            {"kind": "matrix2", "context": {"n": 2, "m": 4}, "a": a}))
        paths.append(str(path))
    argv = ["--n", "2", "equiv", "n2", "--a", paths[0], "--b", paths[1]]
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
