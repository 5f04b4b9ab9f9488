"""Start-up cost guard: what `import radford.cli` pulls into a fresh interpreter.

Every `radford ...` call is a fresh process, so a heavy import is paid on
each one.  `dataclasses` brings `inspect`, `ast` and `dis` with it, and
`json` is only needed under --json or when a file is read.  The eight
layer modules, on the other hand, must all be loaded: the benchmark's
tracer looks them up in `sys.modules` right after this import.
"""

import subprocess
import sys

HEAVY = {"dataclasses", "inspect", "ast", "dis", "json"}
LAYERS = ("scalars", "algebra", "coalgebra", "star", "solver", "classify",
          "parser", "jsonio")


def test_cli_import_skips_heavy_modules_and_loads_every_layer():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import radford.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    new = set(proc.stdout.split())
    assert not new & HEAVY, sorted(new & HEAVY)
    assert {f"radford.{layer}" for layer in LAYERS} <= new
