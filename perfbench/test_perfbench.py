"""Self-tests of the benchmark: seeds, answer key, traced replay.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root; the program under test is ``src/radford``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import answers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cyclo import Cyclo  # noqa: E402
from workloads import Op  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def oracle():
    return answers.Oracle()


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.fingerprint() == b.fingerprint()
    assert [[op.argv for op in r] for r in a.rounds] == \
        [[op.argv for op in r] for r in b.rounds]
    assert a.files == b.files
    assert workloads.build(name, 8).fingerprint() != a.fingerprint()


@pytest.mark.parametrize("name", NAMES)
def test_rounds_hold_the_same_slots(name):
    w = workloads.build(name, 3)
    slots = [sorted(op.slot for op in r) for r in w.rounds]
    assert all(s == slots[0] for s in slots)


def _run_in_process(op, files, tmp_path):
    from radford import cli

    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(op.argv)
    finally:
        os.chdir(cwd)
    return rc, out.getvalue()


SLOW = {"hopf-n5", "hopf-n6", "star-diag-n7", "star-diag-n8"}


@pytest.mark.parametrize("name", NAMES)
def test_answer_key_accepts_the_program_today(name, oracle, tmp_path):
    w = workloads.build(name, 5)
    for op in w.rounds[0]:
        if op.slot in SLOW:
            continue
        rc, out = _run_in_process(op, w.files, tmp_path)
        v = answers.check(op, rc, out, oracle)
        assert v.ok, (op.slot, op.argv, v.reason)


def _op(argv, **expect):
    return Op("test", argv, expect)


def test_wrong_verdicts_are_rejected(oracle):
    hopf = _op(["--n", "3", "verify", "hopf"], kind="report", **{"pass": True})
    assert answers.check(hopf, 0, "PASS coassociativity\nPASS counit_law\n", oracle).ok
    assert not answers.check(hopf, 1, "PASS coassociativity\nFAIL counit_law at y\n",
                             oracle).ok
    assert not answers.check(hopf, 0, "", oracle).ok

    raw = _op(["--n", "4", "verify", "star", "--star", "f"], kind="report",
              fail="involution")
    assert answers.check(raw, 1, "FAIL involution at x\nPASS counit_conjugate\n", oracle).ok
    assert not answers.check(raw, 0, "PASS involution\nPASS counit_conjugate\n", oracle).ok
    assert not answers.check(raw, 1, "PASS involution\nFAIL counit_conjugate\n", oracle).ok

    order = _op(["--n", "4", "antipode-order"], kind="order", value=8)
    assert answers.check(order, 0, "8\n", oracle).ok
    assert not answers.check(order, 0, "7\n", oracle).ok

    scan = _op(["--n", "2", "scan"], kind="scan", survivors=4)
    assert not answers.check(scan, 0, "survivors 5\n", oracle).ok
    skew = _op(["--n", "5", "solve", "skew", "--w", "1"], kind="skew", dimension=3)
    assert not answers.check(skew, 0, "dimension 2\n", oracle).ok
    gl = _op(["--n", "4", "grouplike", "g + x"], kind="grouplike", value=False)
    assert answers.check(gl, 1, "false\n", oracle).ok
    assert not answers.check(gl, 0, "true\n", oracle).ok


def test_wrong_witnesses_are_rejected(oracle, tmp_path):
    n, m = 4, 4
    exp = {"kind": "equiv_diag", "n": n, "m": m, "alpha": {"zeta": 1},
           "beta": {"gauss": ["3/5", "4/5"]}, "decidable": False}
    op = _op(["--n", "4", "--json", "equiv", "diag", "--alpha=z", "--beta=3/5+4/5*i"],
             **exp)
    f = Cyclo(m)
    # l1 = 1 + conj(alpha) solves alpha*l1 = conj(l1): a root-free witness.
    ok_wit = {"kind": "diag", "context": {"n": n, "m": m},
              "lambda1": [str(c) for c in f.add(f.zeta(0), f.zeta(-1))],
              "lambda2": [str(c) for c in f.add(f.zeta(0), f.gauss(Fraction(3, 5),
                                                                   Fraction(-4, 5)))]}
    good = json.dumps({"equivalent": True, "witness": ok_wit})
    assert answers.check(op, 0, good, oracle).ok
    bad_wit = dict(ok_wit, lambda1=[str(c) for c in f.mul(
        f.zeta(1), tuple(Fraction(c) for c in ok_wit["lambda1"]))])
    assert not answers.check(op, 0, json.dumps({"equivalent": True, "witness": bad_wit}),
                             oracle).ok
    assert not answers.check(op, 1, json.dumps({"equivalent": False, "witness": None}),
                             oracle).ok
    unknown = answers.check(op, 1, json.dumps({"equivalent": "unknown-within-bound",
                                               "witness": None}), oracle)
    assert unknown.ok and unknown.decided is False

    w = workloads.build("classify", 2)
    n2 = next(o for o in w.rounds[0] if o.slot == "equiv-n2")
    rc, out = _run_in_process(n2, w.files, tmp_path)
    assert answers.check(n2, rc, out, oracle).ok
    payload = json.loads(out)
    f4 = Cyclo(int(payload["witness"]["context"]["m"]))
    i = f4.zeta(f4.m // 4)
    payload["witness"]["lambda"] = [
        [str(c) for c in f4.mul(i, tuple(Fraction(v) for v in e))]
        for e in payload["witness"]["lambda"]]
    assert not answers.check(n2, rc, json.dumps(payload), oracle).ok


def test_wrong_interactive_outputs_are_rejected(oracle, tmp_path):
    w = workloads.build("interactive", 4)
    seen = set()
    for op in w.rounds[0]:
        kind = op.expect["kind"]
        if kind not in ("normalize", "mul", "delta", "delta-closed", "antipode",
                        "counit", "star-apply") or kind in seen:
            continue
        seen.add(kind)
        rc, out = _run_in_process(op, w.files, tmp_path)
        assert answers.check(op, rc, out, oracle).ok, op.argv
        if "--json" in op.argv:
            payload = json.loads(out)
            if kind == "counit":
                payload["coords"][0] = str(Fraction(payload["coords"][0]) + 1)
            elif payload["terms"]:
                payload["terms"][0]["coeff"][0] = str(
                    Fraction(payload["terms"][0]["coeff"][0]) + 1)
            else:
                continue
            wrong = json.dumps(payload)
        else:
            wrong = out.strip() + (" + 1" if kind == "counit" else " + (2)*y")
            if kind in ("delta", "delta-closed"):
                wrong = out.strip() + " + (1 ⊗ y)"
        assert not answers.check(op, rc, wrong, oracle).ok, (op.argv, wrong)
    assert len(seen) == 7


class _Recorder(run.Runner):
    def __init__(self, *a):
        super().__init__(*a)
        self.calls = []

    def run(self, argv):
        self.calls.append(list(argv))
        return super().run(argv)


def test_traced_replay_runs_the_untraced_argv(oracle, tmp_path):
    w = workloads.build("interactive", 6)
    w.rounds = [w.rounds[0][:6]]
    for rel, text in w.files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    runner = _Recorder(ROOT / "src", tmp_path)

    class Args:
        seconds = 0.0

    with contextlib.redirect_stdout(io.StringIO()):
        done, verdicts, metrics = run.traced(Args, runner, w, oracle)
    plain = [c[3:] for c in runner.calls if c[1:3] == ["-m", "radford"]]
    replay = [c[4:] for c in runner.calls if c[1].endswith("tracing.py")]
    assert plain == replay == [op.argv for op in w.rounds[0]]
    assert all(v.ok for v in verdicts)
    assert metrics["trace.overhead_ratio"][0] > 0
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("per_layer")


def _declared(section):
    """{metric name: unit} as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_untraced_run_reports_the_declared_metrics(oracle, tmp_path):
    w = workloads.build("classify", 6)
    w.rounds = [w.rounds[0][:4]]
    for rel, text in w.files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)

    class Args:
        seconds = 0.0

    with contextlib.redirect_stdout(io.StringIO()):
        done, verdicts, metrics = run.untraced(Args, run.Runner(ROOT / "src", tmp_path),
                                               w, oracle)
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("end_to_end")
    assert all(v.ok for v in verdicts) and all(v > 0 for v, _ in metrics.values())


def test_missing_program_fails_without_result(tmp_path, capsys):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        rc = run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"])
    finally:
        os.chdir(cwd)
    assert rc != 0
    assert '"correct"' not in capsys.readouterr().out
