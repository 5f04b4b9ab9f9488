"""CLI parity against recorded outputs.

``golden_cli.json`` holds star files and fixed argv lists, each with the
stdout, stderr and exit code that ``radford`` gave for it.  Every command
appears in text and ``--json``, next to a failing raw star and each kind
of exit-2 refusal, so a refactor proves here that its output is
unchanged.  An argv token ``{dir}`` names the directory the files are
written to, and the same token stands for it in recorded output.

A case whose output changes on purpose carries a ``note`` saying why.
To re-record after such a change, run ``PYTHONPATH=src python
tests/test_cli_golden.py`` and review the diff of ``golden_cli.json``.
"""

import io
import json
import sys
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
    got = run_case(case["argv"], star_dir)
    assert got == {k: case[k] for k in ("stdout", "stderr", "exit")}


def regenerate():
    """Re-record every case's output from the current program."""
    import os
    import tempfile

    os.environ["COLUMNS"] = "80"
    data = load()
    with tempfile.TemporaryDirectory() as directory:
        write_files(data["files"], directory)
        for case in data["cases"]:
            case.update(run_case(case["argv"], directory))
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, ensure_ascii=False)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(regenerate())
