"""Benchmark of the radford CLI with checked verdicts.

    python3 perfbench/run.py --workload {verify,classify,interactive}
        --seed N --seconds S --trace {0,1}

Run from the repository root: the program under test is ``src/radford``,
launched as ``python -m radford`` with ``PYTHONPATH=src``, one subprocess
per operation.  One client runs a closed loop: it starts the next
operation only after the previous one exits.  The loop runs whole rounds
of the workload (see ``workloads.py``) until ``--seconds`` have passed.
Every output is checked against the answer key (``answers.py``).

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` an untraced loop of a third of the time is
replayed under ``tracing.py`` and the last line holds the per-layer
metrics.  Lines before it give a readable report and the run record.
METRICS.md describes every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import answers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 40
SETUP_REPEATS = 10
# Stop mid-round (or mid-replay) after this long, so that even a pathological
# run ends well within three minutes.
HARD_CAP_S = 100


class OpResult:
    __slots__ = ("wall", "cpu", "rss_kb", "rc", "stdout", "stderr", "timed_out")


class Runner:
    """Runs child processes one at a time and accounts for each with wait4."""

    def __init__(self, src, work):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
        self.out = work / "stdout.txt"
        self.err = work / "stderr.txt"

    def run(self, argv):
        res = OpResult()
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            lock = threading.Lock()
            state = {"exited": False, "timed_out": False}

            def expire():
                with lock:
                    if not state["exited"]:
                        state["timed_out"] = True
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(OP_TIMEOUT_S, expire)
            timer.start()
            # Wait without reaping, so the timer can never signal a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            res.wall = perf_counter() - start
            with lock:
                state["exited"] = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = res.rc = os.waitstatus_to_exitcode(status)
        res.cpu = usage.ru_utime + usage.ru_stime
        res.rss_kb = usage.ru_maxrss
        res.timed_out = state["timed_out"]
        res.stdout = self.out.read_text(encoding="utf-8", errors="replace")
        res.stderr = self.err.read_text(encoding="utf-8", errors="replace")
        return res


def closed_loop(runner, wl, budget_s, argv_of):
    """Whole rounds until ``budget_s`` has passed.

    Returns [(op, OpResult)] and the wall time of each completed round.
    """
    done, round_walls = [], []
    start = perf_counter()
    for r in itertools.count():
        round_start = perf_counter()
        for op in wl.rounds[r % len(wl.rounds)]:
            if perf_counter() - start > HARD_CAP_S:
                return done, round_walls
            done.append((op, runner.run(argv_of(op))))
        round_walls.append(perf_counter() - round_start)
        if perf_counter() - start >= budget_s:
            break
    return done, round_walls


def verdict_of(op, res, oracle):
    if res.timed_out:
        reason = f"timeout after {OP_TIMEOUT_S} s"
    elif res.rc not in (0, 1) or "Traceback (most recent call last)" in res.stderr:
        reason = f"exit {res.rc}: " + (res.stderr.strip().splitlines() or [""])[-1]
    else:
        return answers.check(op, res.rc, res.stdout, oracle)
    return answers.Verdict(False, reason,
                           False if op.expect["kind"].startswith("equiv") else None)


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights.  A workload mixes a few slots of very different cost, and the
    plain sample quantile jumps between them from run to run; this
    estimate moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule per order statistic; the weights sum to 1
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        acc = 0.0
        for k in range(steps):
            x = (i * steps + k + 0.5) * h
            acc += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(acc * h)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def setup_samples(runner, wl, count):
    """Wall times of children that only import radford.cli and build contexts."""
    code = ("import radford.cli\nfrom radford.scalars import make_context\n"
            f"for n, m in {wl.contexts()!r}:\n    make_context(n, m)\n")
    walls = []
    for _ in range(count):
        res = runner.run([sys.executable, "-c", code])
        if res.rc != 0:
            raise RuntimeError("set-up child failed: " + res.stderr.strip())
        walls.append(res.wall)
    return walls


def _sha256_tree(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _report(title, rows):
    print(f"== {title}")
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:14.6g} {unit:8s} {note}")


def untraced(args, runner, wl, oracle):
    # The first child compiles bytecode, as a user's first call does; half
    # the samples come before the loop and half after, so that the median
    # spans the run rather than one moment of a shared machine.
    setup_samples(runner, wl, 1)
    setup = setup_samples(runner, wl, SETUP_REPEATS // 2)
    done, round_walls = closed_loop(runner, wl, args.seconds,
                                    lambda op: [sys.executable, "-m", "radford", *op.argv])
    setup += setup_samples(runner, wl, SETUP_REPEATS - len(setup))
    verdicts = [verdict_of(op, res, oracle) for op, res in done]
    walls = [res.wall for _, res in done]
    failed = sum(not v.ok for v in verdicts)
    equiv = [v.decided for v in verdicts if v.decided is not None]
    undecided = [op for (op, _), v in zip(done, verdicts) if v.decided is False]
    non_root = sum(op.expect.get("decidable") is False for op in undecided)
    tail = quantile(walls, wl.tail_pct / 100)
    beyond = sum(w > tail for w in walls)
    metrics = {
        "ops_per_s": (len(wl.rounds[0]) / statistics.median(round_walls)
                      if round_walls else len(done) / sum(walls), "1/s"),
        "latency_p50_s": (quantile(walls, 0.5), "s"),
        "latency_tail_s": (tail, "s"),
        "cpu_s_per_op": (quantile([res.cpu for _, res in done], 0.5), "s"),
        "peak_rss_mb": (max(res.rss_kb for _, res in done) / 1024, "MB"),
        "decided_ratio": (sum(equiv) / len(equiv) if equiv else 1.0, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = {
        "ops_per_s": f"ops per round / median of {len(round_walls)} round wall times",
        "latency_tail_s": f"p{wl.tail_pct} of {len(walls)} ops, {beyond} beyond",
        "setup_s": f"median of {len(setup)} set-up children",
        "decided_ratio": f"{sum(equiv)} of {len(equiv)} equivalence queries decided; "
                         f"{non_root} of {len(undecided)} undecided have a norm-one "
                         "parameter that is not a root of unity",
    }
    rows = [(k, v, u, notes.get(k, "")) for k, (v, u) in metrics.items()]
    rows.insert(5, ("error_ratio", failed / len(done), "ratio",
                    f"{failed} of {len(done)} ops"))
    _report(f"{wl.name}: end to end, {len(done)} ops in {sum(round_walls):.1f} s", rows)
    return done, verdicts, metrics


def traced(args, runner, wl, oracle):
    done, _ = closed_loop(runner, wl, args.seconds / 3,
                          lambda op: [sys.executable, "-m", "radford", *op.argv])
    verdicts = [verdict_of(op, res, oracle) for op, res in done]
    spans = runner.work / "spans.json"
    records, traced_wall, untraced_wall = [], 0.0, 0.0
    start = perf_counter()
    for op, res in done:
        if perf_counter() - start > HARD_CAP_S:
            break
        tres = runner.run([sys.executable, str(HERE / "tracing.py"), str(spans),
                           "--", *op.argv])
        v = verdict_of(op, tres, oracle)
        if v.ok:
            payload = tracing.read_spans(spans)
            if payload["argv"] != op.argv:
                v = answers.Verdict(False, "traced argv differs from untraced argv")
            records.append((payload, tres.wall))
        traced_wall += tres.wall
        untraced_wall += res.wall
        verdicts.append(v)
    if not records:
        raise RuntimeError("no traced operation succeeded")
    layer = tracing.summarize(records)
    layer["trace.overhead_ratio"] = traced_wall / untraced_wall
    main_self = {k: v for k, v in layer.items() if k.endswith(".self_s")}
    total = sum(main_self.values()) + layer["cli.outside_main_s"]
    rows = [(k, v, "", f"{100 * v / total:.1f}% of traced time" if k in main_self
             or k == "cli.outside_main_s" else "") for k, v in layer.items()]
    _report(f"{wl.name}: per layer, {len(records)} traced ops (means per op)", rows)
    metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
    return done + done[:len(verdicts) - len(done)], verdicts, metrics


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s/op"
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".term_pairs"):
        return "pairs/op"
    if name == "solver.kernel_dim":
        return "dim"
    if name == "classify.n2_candidates_tried":
        return "calls/solve"
    return "ratio"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "radford" / "cli.py").is_file():
        print(f"error: {src}/radford/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    oracle = answers.Oracle()

    wl = workloads.build(args.workload, args.seed)
    work = root / ".perfbench-work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    load_before = os.getloadavg()
    try:
        for rel, text in wl.files.items():
            path = work / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        runner = Runner(src, work)
        run = traced if args.trace else untraced
        done, verdicts, metrics = run(args, runner, wl, oracle)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    wrong = [(op, v) for (op, _), v in zip(done, verdicts) if not v.ok]
    for op, v in wrong[:10]:
        print(f"WRONG {op.slot}: {v.reason} :: radford {' '.join(op.argv)}")
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(root),
        "src_sha256": _sha256_tree(src / "radford"),
        "inputs_sha256": wl.fingerprint(), "ops": len(verdicts),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not wrong, "attempted": len(verdicts), "failed": len(wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
