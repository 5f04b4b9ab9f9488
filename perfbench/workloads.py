"""Seeded workload generation: argv lists, input files and answer keys.

A workload is a pool of rounds.  Every round holds the same slots (one
command at a fixed order n, flags and input size); the seed picks each
slot's parameters and the order of slots within a round.  The runner
executes whole rounds only, so every run measures the same mix and the
percentiles of different runs and seeds stay comparable.

The program sees only the argv lists and the JSON files written here.
Each op's ``expect`` is the answer key entry; ``answers.check`` reads it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from cyclo import (IDENTITY, Cyclo, g, g_norm, g_text, mat_conj,
                   mat_det, mat_inv, mat_mul)

POOL_ROUNDS = 12

# Norm-one Gaussian rationals: units and Pythagorean points.  Only the
# units are roots of unity.
UNITS = [g(1), g(-1), g(0, 1), g(0, -1)]
PYTHAGOREAN = [g(Fraction(a, c), Fraction(b, c))
               for a, b, c in ((3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13),
                               (8, 15, 17))
               for a, b in ((a, b), (-a, b), (a, -b), (-a, -b))]
NOT_NORM_ONE = [g(2), g(Fraction(1, 2)), g(1, 1), g(0, 2), g(Fraction(3, 2)),
                g(1, -2), g(Fraction(-2, 3))]


@dataclass
class Op:
    slot: str
    argv: list
    expect: dict


@dataclass
class Workload:
    name: str
    tail_pct: int
    rounds: list = field(default_factory=list)
    files: dict = field(default_factory=dict)

    def contexts(self):
        """Every (n, m) that the argv lists name, m None for the default."""
        out = set()
        for rnd in self.rounds:
            for op in rnd:
                a = op.argv
                m = int(a[a.index("--m") + 1]) if "--m" in a else None
                out.add((int(a[a.index("--n") + 1]), m))
        return sorted(out, key=lambda t: (t[0], t[1] or 0))

    def fingerprint(self):
        """sha256 over the argv lists and the input files, in order."""
        h = hashlib.sha256()
        for rnd in self.rounds:
            for op in rnd:
                h.update(json.dumps(op.argv).encode())
        for path in sorted(self.files):
            h.update(path.encode() + b"\0" + self.files[path].encode())
        return h.hexdigest()


def default_m(n):
    return math.lcm(4, n)


# -- JSON inputs in the program's documented format -------------------------

def _coords(c):
    return [str(v) for v in c]


def star_diag_json(n, m, alpha, beta):
    return {"kind": "diag", "context": {"n": n, "m": m},
            "alpha": _coords(alpha), "beta": _coords(beta)}


def star_matrix_json(a):
    f = Cyclo(4)
    return {"kind": "matrix2", "context": {"n": 2, "m": 4},
            "a": [_coords(f.gauss(*e)) for e in a]}


def _element_json(n, m, terms):
    return {"context": {"n": n, "m": m},
            "terms": [{"r": r, "s": s, "l": l, "coeff": _coords(c)}
                      for (r, s, l), c in sorted(terms.items())]}


def star_raw_json(n, m, g_img, x_img, y_img):
    return {"kind": "raw", "context": {"n": n, "m": m},
            "g_img": _element_json(n, m, g_img),
            "x_img": _element_json(n, m, x_img),
            "y_img": _element_json(n, m, y_img)}


# -- parameter generators -----------------------------------------------------

def random_gauss_matrix(rng):
    """A with conj(A) A = I, as S conj(S)^-1 for a random invertible S."""
    while True:
        s = tuple(g(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4))
        if any(mat_det(s)):
            return mat_mul(s, mat_inv(mat_conj(s)))


def is_star_matrix(a):
    return mat_mul(mat_conj(a), a) == IDENTITY


def zeta_exponent(rng, m, parity):
    """An exponent in [0, m) of the given parity ('odd', 'even')."""
    k = rng.randrange(m // 2) * 2
    return k + 1 if parity == "odd" else k


def root_text(rng, m, a):
    """Expression for zeta^a; sometimes written through -1 or i."""
    form = rng.randrange(3)
    if form == 1:
        return f"-z^{(a - m // 2) % m}"
    if form == 2:
        return f"i*z^{(a - m // 4) % m}"
    return f"z^{a}"


def scan_survivors(n, grid):
    """Survivors of `scan` by the classification of star structures.

    With g* = g the x and y images are (1, g)-skew-primitive, so they lie
    in span{x, y, 1 - g}.  Antimultiplicativity on xg = w gx, gy = w yg
    kills the 1 - g parts, and for n > 2 the cross terms, so x* = a x,
    y* = d y with |a| = |d| = 1; for n = 2, (x*, y*) = A (x, y) with
    conj(A) A = I.  g* = g^w for w > 1 never survives the involution.
    Hence only candidates with zero (1 - g) coefficients count.
    """
    if g(0) not in grid:
        return 0
    if n > 2:
        units = sum(1 for c in grid if g_norm(c) == 1)
        return units * units
    return sum(1 for a in grid for b in grid for c in grid for d in grid
               if is_star_matrix((a, b, c, d)))


# -- interactive expressions --------------------------------------------------

COEFFS = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3),
          Fraction(-2, 3)]


def random_terms(rng, m, count, max_len):
    """[(q, k, letters)]: the term q * zeta^k * letters (a free word)."""
    terms = []
    for _ in range(count):
        letters = "".join(rng.choice("gxy") for _ in range(rng.randint(1, max_len)))
        k = rng.randrange(m) if rng.random() < 0.5 else 0
        terms.append((rng.choice(COEFFS), k, letters))
    return terms


def _word_text(letters):
    out, i = [], 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        run = j - i
        out.append(letters[i] if run == 1 else f"{letters[i]}^{run}")
        i = j
    return "*".join(out)


def _coeff_text(q, k, n, m):
    mag = abs(q)
    parts = [] if mag == 1 and k else [str(mag)]
    if k:
        if k == m // 4:
            parts.append("i")
        elif k % (m // n) == 0:
            j = k // (m // n)
            parts.append("w" if j == 1 else f"w^{j}")
        else:
            parts.append(f"z^{k}")
    return "*".join(parts)


def terms_text(terms, n, m):
    """Expression text; parenthesized when it would start with '-', so
    argparse does not take it for an option."""
    out = ""
    for idx, (q, k, letters) in enumerate(terms):
        body = f"{_coeff_text(q, k, n, m)}*{_word_text(letters)}"
        if idx == 0:
            out = ("-" if q < 0 else "") + body
        else:
            out += (" - " if q < 0 else " + ") + body
    return f"({out})" if out.startswith("-") else out


def terms_json(terms):
    return [[str(q), k, letters] for q, k, letters in terms]


# -- the three workloads --------------------------------------------------------

class _Builder:
    def __init__(self, name, seed, tail_pct):
        self.w = Workload(name, tail_pct)
        self.rng = random.Random(f"{name}:{seed}")
        self.round = []

    def op(self, slot, n, args, expect, m=None, json_out=False):
        argv = ["--n", str(n)]
        if m is not None:
            argv += ["--m", str(m)]
        if json_out:
            argv.append("--json")
        self.round.append(Op(slot, argv + list(args), expect))

    def file(self, slot, obj):
        path = f"inputs/{len(self.w.files)}-{slot}.json"
        self.w.files[path] = json.dumps(obj, sort_keys=True)
        return path

    def end_round(self):
        self.rng.shuffle(self.round)
        self.w.rounds.append(self.round)
        self.round = []

    # shared slot kinds

    def verify_hopf(self, n, json_out=False):
        self.op(f"hopf-n{n}", n, ["verify", "hopf"], {"kind": "report", "pass": True},
                json_out=json_out)

    def verify_star_diag(self, n, json_out=False):
        m = default_m(n)
        f = Cyclo(m)
        a, b = self.rng.randrange(m), self.rng.randrange(m)
        path = self.file(f"diag-n{n}", star_diag_json(n, m, f.zeta(a), f.zeta(b)))
        self.op(f"star-diag-n{n}", n, ["verify", "star", "--star", path],
                {"kind": "report", "pass": True}, json_out=json_out)

    def verify_star_matrix(self, json_out=False):
        path = self.file("matrix", star_matrix_json(random_gauss_matrix(self.rng)))
        self.op("star-matrix-n2", 2, ["verify", "star", "--star", path],
                {"kind": "report", "pass": True}, json_out=json_out)

    def scan(self, n, size):
        """Grid of 0, one norm-one value and size - 2 other values."""
        grid = [g(0), self.rng.choice(UNITS + PYTHAGOREAN)]
        while len(grid) < size:
            c = self.rng.choice(NOT_NORM_ONE + PYTHAGOREAN)
            if c not in grid:
                grid.append(c)
        self.rng.shuffle(grid)
        self.op(f"scan-n{n}-grid{size}", n,
                ["scan", "--grid=" + ",".join(g_text(c) for c in grid)],
                {"kind": "scan", "survivors": scan_survivors(n, grid)})

    def equiv_diag(self, n, alpha, beta):
        """alpha/beta: ('odd'|'even') for a root of unity, 'gauss' otherwise."""
        m = default_m(n)
        args, spec = [], {}
        for name, kind in (("alpha", alpha), ("beta", beta)):
            if kind == "gauss":
                c = self.rng.choice(PYTHAGOREAN)
                args.append(f"--{name}={g_text(c)}")
                spec[name] = {"gauss": [str(c[0]), str(c[1])]}
            else:
                a = zeta_exponent(self.rng, m, kind)
                args.append(f"--{name}={root_text(self.rng, m, a)}")
                spec[name] = {"zeta": a}
        self.op(f"equiv-diag-n{n}-{alpha}-{beta}", n, ["equiv", "diag"] + args,
                {"kind": "equiv_diag", "n": n, "m": m, **spec,
                 "decidable": "gauss" not in (alpha, beta)},
                json_out=True)

    def equiv_n2(self):
        a, b = random_gauss_matrix(self.rng), random_gauss_matrix(self.rng)
        pa = self.file("n2-a", star_matrix_json(a))
        pb = self.file("n2-b", star_matrix_json(b))
        enc = [[[str(v) for v in e] for e in mat] for mat in (a, b)]
        self.op("equiv-n2", 2, ["equiv", "n2", "--a", pa, "--b", pb],
                {"kind": "equiv_n2", "a": enc[0], "b": enc[1]}, json_out=True)

    def solve_skew(self, n, w):
        dim = 3 if w == 1 else (0 if w == 0 else 1)
        self.op(f"skew-n{n}", n, ["solve", "skew", "--w", str(w)],
                {"kind": "skew", "dimension": dim})


def verify_workload(seed):
    b = _Builder("verify", seed, tail_pct=75)
    rng = b.rng
    for _ in range(POOL_ROUNDS):
        b.verify_hopf(4)
        b.verify_hopf(5, json_out=True)
        b.verify_hopf(6)
        # Four n = 6 structures sit at the median with antipode-order n = 9
        # and the n = 2 scan, which cost about the same; so latency_p50_s
        # measures verify star at n = 6 instead of jumping between two
        # slots of different cost from run to run.
        for n in (3, 5, 6, 6, 6, 6, 7, 8):
            b.verify_star_diag(n, json_out=n == 3)
        b.verify_star_matrix()
        # |c| != 1: (x*)* = |c|^2 x, so the involution check must fail.
        n, m = 4, default_m(4)
        f = Cyclo(m)
        c = f.gauss(*rng.choice(NOT_NORM_ONE))
        path = b.file("raw-scaled-n4", star_raw_json(
            n, m, {(0, 0, 1): f.zeta(0)}, {(0, 1, 0): c}, {(1, 0, 0): f.zeta(0)}))
        b.op("raw-scaled-n4", n, ["verify", "star", "--star", path],
             {"kind": "report", "fail": "involution"})
        # x* = u y, y* = v x with g* = g: (xg)* = g x* and (w gx)* = conj(w) x* g
        # differ by w^2 != 1, so antimultiplicativity must fail for n > 2.
        n, m = 6, default_m(6)
        f = Cyclo(m)
        u, v = rng.randrange(m), rng.randrange(m)
        path = b.file("raw-swap-n6", star_raw_json(
            n, m, {(0, 0, 1): f.zeta(0)}, {(1, 0, 0): f.zeta(u)}, {(0, 1, 0): f.zeta(v)}))
        b.op("raw-swap-n6", n, ["verify", "star", "--star", path],
             {"kind": "report", "fail": "antimultiplicative"}, json_out=True)
        for n in (6, 9, 12):
            b.op(f"antipode-order-n{n}", n, ["antipode-order"],
                 {"kind": "order", "value": 2 * n}, json_out=n == 9)
        b.scan(2, 3)
        b.scan(3, 3)
        # Cheap probes so every per-layer metric is measured on this workload.
        b.equiv_diag(3, "odd", "even")
        b.equiv_n2()
        b.solve_skew(3, rng.randrange(3))
        b.end_round()
    return b.w


def classify_workload(seed):
    b = _Builder("classify", seed, tail_pct=80)
    rng = b.rng
    for _ in range(POOL_ROUNDS):
        for n, alpha, beta in ((3, "odd", "odd"), (4, "even", "even"),
                               (5, "odd", "even"), (6, "even", "odd"),
                               (8, "odd", "odd"), (10, "even", "even"),
                               (12, "odd", "odd")):
            b.equiv_diag(n, alpha, beta)
        # Norm-one but not roots of unity: today "unknown-within-bound".
        b.equiv_diag(5, "gauss", "even")
        b.equiv_diag(9, "odd", "gauss")
        b.equiv_n2()
        b.equiv_n2()
        b.solve_skew(5, 0)
        b.solve_skew(7, 1)
        b.solve_skew(9, rng.randrange(2, 9))
        for n, grouplike in ((6, True), (8, False)):
            _grouplike_op(b, n, grouplike, json_out=grouplike)
        b.verify_hopf(2)
        b.verify_star_matrix(json_out=True)
        b.scan(2, 2)
        b.end_round()
    return b.w


def _grouplike_op(b, n, grouplike, m=None, json_out=False):
    rng = b.rng
    mm = m or default_m(n)
    k = rng.randrange(n)
    if grouplike:
        j = rng.randrange(n)
        text = rng.choice([f"g^{k}", f"g^{j}*g^{(k - j) % n}", f"g^{k + n}"])
    else:
        def gp(e):  # the word g^e, written g^n when e = 0
            return "g" * (e % n or n)
        terms = rng.choice([
            [(Fraction(1), 0, gp(k)), (Fraction(1), 0, "x")],
            [(Fraction(2), 0, gp(k))],
            [(Fraction(1), mm // n, gp(k))],
            [(Fraction(1), 0, gp(k)), (Fraction(-1), 0, gp(k + 1))],
            [(Fraction(1), 0, "y" + "g" * k)],
        ])
        text = terms_text(terms, n, mm)
    b.op(f"grouplike-n{n}", n, ["grouplike", text],
         {"kind": "grouplike", "value": grouplike}, m=m, json_out=json_out)


INTERACTIVE_SLOTS = [
    # (command, n, json, m multiplier or None, terms, max word length)
    ("normalize", 2, False, None, 2, 4),
    ("normalize", 5, True, None, 3, 4),
    ("normalize", 8, False, 30, 2, 3),
    ("normalize", 4, True, None, 3, 4),
    ("mul", 3, False, None, 2, 3),
    ("mul", 4, True, None, 2, 3),
    ("mul", 6, False, 10, 2, 2),
    ("mul", 7, True, None, 2, 3),
    ("mul", 2, False, None, 3, 3),
    ("delta", 3, True, None, 2, 3),
    ("delta", 6, False, None, 2, 3),
    ("delta", 8, True, 5, 1, 3),
    ("delta-closed", 4, False, None, 2, 3),
    ("delta-closed", 5, True, None, 2, 3),
    ("delta-closed", 7, False, 4, 1, 3),
    ("antipode", 3, True, None, 2, 3),
    ("antipode", 5, False, None, 2, 3),
    ("antipode", 8, True, 6, 2, 3),
    ("counit", 4, False, None, 3, 3),
    ("counit", 6, True, 8, 3, 3),
    ("star-apply", 3, True, None, 2, 3),
    ("star-apply", 5, False, None, 2, 3),
    ("star-apply", 7, True, None, 2, 3),
    ("grouplike", 4, False, None, 0, 0),
    ("grouplike", 6, True, 20, 0, 0),
    ("grouplike", 8, False, None, 0, 0),
]


def interactive_workload(seed):
    b = _Builder("interactive", seed, tail_pct=90)
    rng = b.rng
    for _ in range(POOL_ROUNDS):
        for cmd, n, json_out, mult, count, max_len in INTERACTIVE_SLOTS:
            m = default_m(n) * mult if mult else None
            mm = m or default_m(n)
            if cmd == "grouplike":
                _grouplike_op(b, n, rng.random() < 0.5, m=m, json_out=json_out)
                continue
            terms = random_terms(rng, mm, count, max_len)
            expect = {"kind": cmd, "n": n, "m": mm, "expr": terms_json(terms)}
            args = [cmd]
            if cmd == "star-apply":
                a, bb = rng.randrange(mm), rng.randrange(mm)
                f = Cyclo(mm)
                path = b.file(f"star-n{n}", star_diag_json(n, mm, f.zeta(a), f.zeta(bb)))
                args += ["--star", path]
                expect["star"] = [a, bb]
            args.append(terms_text(terms, n, mm))
            if cmd == "mul":
                rhs = random_terms(rng, mm, count, max_len)
                args.append(terms_text(rhs, n, mm))
                expect["rhs"] = terms_json(rhs)
            b.op(f"{cmd}-n{n}", n, args, expect, m=m, json_out=json_out)
        # Cheap probes so every per-layer metric is measured on this workload.
        b.verify_hopf(2)
        b.verify_star_matrix()
        b.scan(2, 2)
        b.equiv_diag(3, "even", "odd")
        b.equiv_n2()
        b.solve_skew(2, rng.randrange(2))
        b.end_round()
    return b.w


WORKLOADS = {
    "verify": verify_workload,
    "classify": classify_workload,
    "interactive": interactive_workload,
}


def build(name, seed):
    return WORKLOADS[name](seed)
