"""CLI parity against recorded outputs.

``golden_cli.json`` holds star files and fixed argv lists, each with the
stdout, stderr and exit code that ``radford`` gave for it.  Every command
appears in text and ``--json``, next to a failing raw star and each kind
of exit-2 refusal, so a refactor proves here that its output is
unchanged.  An argv token ``{dir}`` names the directory the files are
written to, and the same token stands for it in recorded output.

A case whose output changes on purpose carries a ``note`` saying why.
To re-record after such a change, run ``PYTHONPATH=src python
tests/test_cli_golden.py``: it prints the argv of every case whose
output changed, refuses to write while one of them has no note, and
otherwise rewrites ``golden_cli.json``, whose diff you then review.
"""

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_cli.json")


def load():
    with open(GOLDEN, encoding="utf-8") as f:
        return json.load(f)


def write_files(files, directory):
    for name, obj in files.items():
        (Path(directory) / name).write_text(json.dumps(obj), encoding="utf-8")


def run_case(argv, directory):
    """stdout, stderr and exit code of ``radford argv``, run in-process."""
    from radford.cli import main

    directory = str(directory)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([a.replace("{dir}", directory) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return {"stdout": out.getvalue().replace(directory, "{dir}"),
            "stderr": err.getvalue().replace(directory, "{dir}"),
            "exit": code}


GOLDEN_DATA = load()


@pytest.fixture(scope="module")
def star_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_files(GOLDEN_DATA["files"], directory)
    return directory


@pytest.mark.parametrize("case", GOLDEN_DATA["cases"],
                         ids=[" ".join(c["argv"])[:60] for c in GOLDEN_DATA["cases"]])
def test_cli_matches_golden(case, star_dir, monkeypatch):
    # argparse wraps usage to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    start = time.perf_counter()
    got = run_case(case["argv"], star_dir)
    assert got == {k: case[k] for k in ("stdout", "stderr", "exit")}
    # A refusal comes after at most one call's budget of work.
    assert case["exit"] != 2 or time.perf_counter() - start < 3


def regenerate():
    """Re-record every case's output from the current program.

    Prints the argv of each case whose output changed, a new case
    included, and writes nothing while one of them carries no ``note``.
    """
    import os
    import tempfile

    os.environ["COLUMNS"] = "80"
    data = load()
    unexplained = 0
    with tempfile.TemporaryDirectory() as directory:
        write_files(data["files"], directory)
        for case in data["cases"]:
            got = run_case(case["argv"], directory)
            if got != {k: case.get(k) for k in got}:
                print("changed:", json.dumps(case["argv"], ensure_ascii=False))
                unexplained += "note" not in case
            case.update(got)
    if unexplained:
        print(f"{unexplained} changed case(s) carry no note; {GOLDEN.name} is "
              "not written", file=sys.stderr)
        return 1
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, ensure_ascii=False)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())


def test_regenerate_refuses_a_changed_case_without_note(tmp_path, monkeypatch, capsys):
    path = tmp_path / "golden_cli.json"
    case = {"argv": ["--n", "3", "normalize", "x"], "stdout": "y\n", "stderr": "",
            "exit": 0}
    path.write_text(json.dumps({"files": {}, "cases": [case]}), encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", path)
    monkeypatch.setenv("COLUMNS", "80")  # regenerate() sets it
    assert regenerate() == 1
    assert capsys.readouterr().out == 'changed: ["--n", "3", "normalize", "x"]\n'
    assert json.loads(path.read_text(encoding="utf-8"))["cases"] == [case]
    case["note"] = "x is printed as x"
    path.write_text(json.dumps({"files": {}, "cases": [case]}), encoding="utf-8")
    assert regenerate() == 0
    [written] = json.loads(path.read_text(encoding="utf-8"))["cases"]
    assert written["stdout"] == "x\n" and written["note"] == case["note"]
