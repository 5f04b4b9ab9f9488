"""Exact arithmetic in the cyclotomic field Q(zeta_m).

Every complex scalar the kernel touches lives here: the root of unity
omega of order n, the imaginary unit i = zeta^(m/4), the unit scalars
alpha/beta parametrizing star structures, and all matrix entries.  A
scalar is a coordinate vector in the power basis 1, zeta, ...,
zeta^(phi(m)-1) modulo the m-th cyclotomic polynomial Phi_m, so equality,
conjugation and norm-one tests are exact and decidable.

The conductor m must be divisible by both n (so omega = zeta^(m/n) has
order exactly n) and 4 (so i = zeta^(m/4) squares to -1); the default is
lcm(4, n).  Phi_m is computed by the Moebius product over the divisors
of m, not from tables, so any valid conductor works.  ``make_context``
interns one ``FieldContext`` per (n, m), and contexts are compared by
identity.  A context's one table is its rows, the nonzero coordinates of
each zeta^k, k < m; a power of zeta, omega or i is read from its row
when asked for, and kept nowhere.

Internally a scalar stores an integer numerator vector plus one positive
denominator (Phi_m is monic over Z, so reduction never leaves that form).
Rationals cross the boundary as integers: a scalar compares and combines
with ints, is built from anything with ``numerator`` and ``denominator``
(an int, a Fraction, a parsed literal), and prints its coordinates as
``p`` or ``p/q`` (``coord_texts``).  Only the ``coords`` view uses
``fractions``, which loads ``decimal`` and ``numbers`` with it.
"""

from __future__ import annotations

import math
import operator

from .errors import ContextMismatchError, KernelError

# Largest conductor make_context accepts.  A context holds the nonzero
# coordinates of zeta^k for k < m (at most 16 952 of them, at m = 924) and
# every product costs phi(m)^2 operations, so an oversized --n or --m is
# refused up front instead of hanging.
MAX_CONDUCTOR = 1024

# Most digits an input number may take, written as a fraction p/q: an
# integer literal of an expression or a rational coordinate of a JSON file.
# A check on the input text alone, run before any arithmetic.
MAX_INPUT_DIGITS = 1000

# Most work one call of ``cli.main`` may do, in units of roughly 50-100 ns,
# about one product of two word-sized coordinates.  ``_meter`` counts the
# work where it happens, before it runs, and a charge past the budget
# raises KernelError (exit 2): a refusal comes after at most about a second
# of work (whole commands measured 30-170 ns per unit), whatever the input.
# A scalar's size s is 1 + the whole 128-bit words of its largest integer:
# a pair of coordinates costs (s1 s2)^0.79 units, as Python multiplies
# long integers by Karatsuba, and a gcd or a printed coordinate about s^2.
# Each charge, and one measured row, in-process, best of five, Python
# 3.11, 2-core shared VM:
#
#   FieldContext._mul_nums: 60 + 3 phi(m) + (pairs + folds) (s1 s2)^0.79,
#     a fold being a nonzero of a row zeta^k walked (``FieldContext._walk``),
#     and 4 s1 s2 per coordinate over a denominator
#     dense x dense, phi(m) = 256              71 386 units   5.4 ms   75 ns
#   CyclotomicScalar.__add__: 40 + phi(m) + s per nonzero coordinate,
#     4 s^2 over a denominator
#     dense + dense, phi(m) = 256                 552 units    53 us   97 ns
#   CyclotomicScalar.conjugate and .embed: 20 + phi(m) + the image's phi(m),
#     4 s^2 per nonzero coordinate over a denominator, and s per nonzero of
#     the rows zeta^k walked
#     conjugate zeta^7, phi(m) = 48               118 units   5.5 us   47 ns
#     conjugate dense, phi(m) = 256             6 456 units  0.32 ms   49 ns
#     embed dense, m = 12 into m = 1020           284 units   5.1 us   18 ns
#   CyclotomicScalar.inverse: its conjugates and products, as above
#     inverse dense, phi(m) = 96              837 627 units   56 ms    66 ns
#   CyclotomicScalar.coord_texts: 40 + 6 phi(m) + s^2 / 2 per nonzero
#     coordinate, and 20 + 3 phi(m) more in ``jsonio.scalar_to_json``
#     `--n 3 --m 132 scan`, 17 424 printed    11 524 811 units   0.52 s   45 ns
#   algebra.SparseTerms.collect: 3 per item
#     1000 items on 1000 keys                   3 000 units  0.35 ms  118 ns
#   algebra.SparseTerms._product: 60 + 20 per term pair
#     1 x 1, phi(m) = 4                           156 units    10 us   64 ns
#   classify.scan_star_candidates: 60 per candidate, 100 per member
#     0 and the 144th roots, n = 3          2 137 523 units   0.22 s  101 ns
MAX_WORK = 12_000_000


class _Meter:
    """The work done since ``cli.main`` last armed the meter, in MAX_WORK
    units.  Unarmed, as for library callers, it counts and refuses nothing."""

    __slots__ = ("spent", "budget")

    def __init__(self):
        self.spent, self.budget = 0, None

    def arm(self, budget):
        """Count from 0, and refuse a charge that passes ``budget``."""
        self.spent, self.budget = 0, budget

    def disarm(self):
        """Keep counting, and refuse nothing."""
        self.budget = None

    def charge(self, units):
        self.spent += int(units)
        if self.budget is not None and self.spent > self.budget:
            raise KernelError(f"the call needs more than {self.budget} units of "
                              "work, the limit for one call")


_meter = _Meter()


def _size(num, den):
    """1 + the whole 128-bit words of the largest of den and |v| for v in num."""
    return 1 + (max(den, max(map(abs, num), default=0)).bit_length() >> 7)


def _mobius(k):
    """The Moebius function mu(k), by trial division."""
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


def _cyclotomic_poly(m):
    """Coefficients of Phi_m, ascending, as prod over d | m of (X^d - 1)^mu(m/d).

    The binomials with mu = 1 are multiplied in first, then those with
    mu = -1 are divided out exactly; each step costs O(degree).
    """
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(m // d) == 1:
            out = [0] * d + poly
            for k, c in enumerate(poly):
                out[k] -= c
            poly = out
    for d in divisors:
        if _mobius(m // d) == -1:
            # poly = q * (X^d - 1), so q[k] = q[k - d] - poly[k] from the bottom.
            q = [0] * (len(poly) - d)
            for k in range(len(q)):
                q[k] = (q[k - d] if k >= d else 0) - poly[k]
            poly = q
    return tuple(poly)


_context_cache = {}


def make_context(n, m=None):
    """Build (or reuse) the field context for order n and conductor m.

    Rejects n < 2, any explicit m that is not a positive multiple of both
    n and 4, and any conductor above MAX_CONDUCTOR.  The default
    conductor is lcm(4, n), the smallest one housing both omega and i.
    """
    if n < 2:
        raise KernelError(f"order n must be at least 2, got {n}")
    if m is None:
        m = math.lcm(4, n)
    if m > MAX_CONDUCTOR:
        raise KernelError(
            f"conductor m={m} exceeds the limit {MAX_CONDUCTOR}"
        )
    if m < 1 or m % n != 0 or m % 4 != 0:
        raise KernelError(
            f"conductor m={m} must be a positive multiple of n={n} and of 4")
    key = (n, m)
    ctx = _context_cache.get(key)
    if ctx is None:
        ctx = FieldContext(n, m)
        _context_cache[key] = ctx
    return ctx


class FieldContext:
    """Q(zeta_m) with omega of order n and i.  Interned: :func:`make_context`
    returns one context per (n, m), so contexts compare by identity alone.
    Immutable: every field is set here and never later.  Its one table is
    ``_rows``, the nonzero coordinates of each zeta^k, k < m."""

    __slots__ = ("n", "m", "phi_m", "degree", "omega_exponent", "i_exponent", "_rows")

    def __init__(self, n, m):
        self.n = n
        self.m = m
        self.phi_m = _cyclotomic_poly(m)
        self.degree = len(self.phi_m) - 1
        self.omega_exponent = m // n
        self.i_exponent = m // 4
        d = self.degree
        # zeta^k for 0 <= k < m as its nonzero coordinates (j, v) in the
        # power basis, in order of j: each row is zeta times the one before,
        # its coefficient of zeta^d folded back by zeta^d = X^d - Phi_m.
        # Integral because Phi_m is monic; the rows cover a product's
        # powers, 2d - 2 < m.
        top = [(j, -c) for j, c in enumerate(self.phi_m[:d]) if c]
        rows = [((k, 1),) for k in range(d)]
        while len(rows) <= m:
            row = {j + 1: v for j, v in rows[-1]}
            carry = row.pop(d, 0)
            if carry:
                for j, t in top:
                    row[j] = row.get(j, 0) + carry * t
            rows.append(tuple(sorted((j, v) for j, v in row.items() if v)))
        if rows.pop() != rows[0]:
            raise AssertionError(f"zeta^{m} != 1 in context m={m}")
        self._rows = tuple(rows)
        # i^2 = -1 and omega has order exactly n; cheap one-time checks.
        if rows[2 * self.i_exponent] != ((0, -1),):
            raise AssertionError(f"zeta^{self.i_exponent} does not square to -1")
        for k in range(1, n):
            if rows[self.omega_exponent * k] == rows[0]:
                raise AssertionError(f"omega has order below n={n}")

    def __repr__(self):
        return f"FieldContext(n={self.n}, m={self.m})"

    @property
    def zero(self):
        return CyclotomicScalar(self, (0,) * self.degree, 1)

    @property
    def one(self):
        return self.from_int(1)

    def zeta(self, k=1):
        """zeta_m^k as a scalar."""
        out = [0] * self.degree
        self._walk(out, ((k % self.m, 1),))
        return CyclotomicScalar(self, out)

    def omega(self, k=1):
        """omega^k where omega = zeta^(m/n) has multiplicative order n."""
        return self.zeta(self.omega_exponent * (k % self.n))

    def i(self, k=1):
        """i^k where i = zeta^(m/4)."""
        return self.zeta(self.i_exponent * (k % 4))

    def from_int(self, v):
        return CyclotomicScalar(self, [v] + [0] * (self.degree - 1))

    def from_fraction(self, f):
        """The rational f, read from its ``numerator`` and ``denominator``."""
        num = [f.numerator] + [0] * (self.degree - 1)
        return CyclotomicScalar(self, num, f.denominator)

    def from_coords(self, coords):
        """Scalar from phi(m) rational coordinates in the power basis, each
        read from its ``numerator`` and ``denominator``."""
        if len(coords) != self.degree:
            raise KernelError(
                f"expected {self.degree} coordinates, got {len(coords)}"
            )
        den = math.lcm(*(c.denominator for c in coords)) if coords else 1
        num = [c.numerator * (den // c.denominator) for c in coords]
        return CyclotomicScalar(self, num, den)

    def zeta_log(self, a):
        """Return the k < m with a = zeta^k, or None: the first row zeta^k
        that equals a's nonzero coordinates (j, v), both in order of j."""
        if a.ctx is not self:
            raise ContextMismatchError("scalar from another context")
        if a.den != 1:
            return None
        try:
            return self._rows.index(tuple((j, v) for j, v in enumerate(a.num) if v))
        except ValueError:
            return None

    def _walk(self, out, terms, weight=0):
        """Add v zeta^k into the coordinate list ``out`` for each pair (k, v)
        of ``terms``, 0 <= k < m, through the nonzeros of the rows zeta^k,
        each charged ``weight``; return how many it walked.  The one loop
        through the rows' entries, for ``zeta``, a product's fold and
        ``_substitute``; ``zeta_log`` only compares whole rows."""
        rows, walked = self._rows, 0
        for k, _ in terms:
            walked += len(rows[k])
        if weight and walked:
            _meter.charge(weight * walked)
        for k, v in terms:
            for j, c in rows[k]:
                out[j] += v * c
        return walked

    def _mul_nums(self, n1, d1, n2, d2):
        d = self.degree
        a = [(i, v) for i, v in enumerate(n1) if v]
        b = [(j, v) for j, v in enumerate(n2) if v]
        # Charged as MAX_WORK says: each nonzero pair, then each nonzero of
        # the rows a coefficient past zeta^(d-1) folds through, weighs a
        # product of the factors' integers, and each coordinate over a
        # denominator its gcd.
        s = _size([v for _, v in a], d1) * _size([v for _, v in b], d2)
        w = s ** 0.79 if s > 1 else 1
        _meter.charge(60 + 3 * d + len(a) * len(b) * w)
        conv = [0] * (2 * d - 1)
        for i, x in a:
            for j, y in b:
                conv[i + j] += x * y
        out, den = conv[:d], d1 * d2
        nonzero = d - out.count(0) if den != 1 else 0
        folds = self._walk(out, [(k, c) for k, c in enumerate(conv[d:], d) if c], w)
        if den != 1:
            _meter.charge(4 * min(d, nonzero + folds) * s)
        return out, den


def _power(base, k, mul, one):
    """base^k for k >= 0 by square-and-multiply under ``mul``: no product
    by ``one`` and no squaring past the top bit of k.  The one power of
    scalars and algebra elements."""
    acc = None
    while True:
        if k & 1:
            acc = base if acc is None else mul(acc, base)
        k >>= 1
        if not k:
            return one if acc is None else acc
        base = mul(base, base)


class CyclotomicScalar:
    """Element of Q(zeta_m): integer numerator vector over one denominator."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den=1):
        # num entries are ints; with den = 1 the vector is already canonical,
        # else it is brought to lowest terms over a positive denominator.
        if den != 1:
            if den < 0:
                den, num = -den, [-v for v in num]
            g = math.gcd(den, *num)
            if g > 1:
                den //= g
                num = [v // g for v in num]
        self.ctx, self.num, self.den = ctx, tuple(num), den

    # -- value protocol ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CyclotomicScalar):
            return self.ctx is other.ctx and self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num[0] == other and not any(self.num[1:])
        return NotImplemented

    def __hash__(self):
        if self.den == 1 and not any(self.num[1:]):
            return hash(self.num[0])
        return hash((self.ctx.m, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    @property
    def is_zero(self):
        return not any(self.num)

    @property
    def coords(self):
        """The phi(m) rational coordinates in the power basis, as Fractions."""
        from fractions import Fraction

        return tuple(Fraction(v, self.den) for v in self.num)

    def coord_texts(self):
        """Each coordinate in lowest terms, as ``p`` or ``p/q``."""
        num, den = self.num, self.den
        # int -> str takes time quadratic in the length (MAX_WORK).
        s = _size(num, den)
        _meter.charge(40 + 6 * len(num) + (len(num) - num.count(0)) * s * s / 2)
        try:
            if den == 1:
                return [str(v) for v in num]
            return [str(v // g) if (g := math.gcd(v, den)) == den
                    else f"{v // g}/{den // g}" for v in num]
        except ValueError as exc:
            raise KernelError("a scalar coordinate has too many digits to print") from exc

    def __repr__(self):
        return f"CyclotomicScalar({list(self.coords)}, m={self.ctx.m})"

    # -- field operations ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, CyclotomicScalar):
            return self.ctx.from_int(other) if isinstance(other, int) else None
        if self.ctx is not other.ctx:
            raise ContextMismatchError(
                f"cannot combine scalars from {self.ctx} and {other.ctx}"
            )
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.den, other.den
        # Linear in the integers' length, but a denominator's gcds are not.
        d = self.ctx.degree
        nonzero = min(d, 2 * d - self.num.count(0) - other.num.count(0))
        s = max(_size(self.num, d1), _size(other.num, d2))
        _meter.charge(40 + d + nonzero * (s if d1 == d2 == 1 else 4 * s * s))
        if d1 == d2:
            num = [a + b for a, b in zip(self.num, other.num)]
            return CyclotomicScalar(self.ctx, num, d1)
        num = [a * d2 + b * d1 for a, b in zip(self.num, other.num)]
        return CyclotomicScalar(self.ctx, num, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        s = CyclotomicScalar.__new__(CyclotomicScalar)
        s.ctx, s.num, s.den = self.ctx, tuple(-v for v in self.num), self.den
        return s

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return CyclotomicScalar(
            self.ctx, *self.ctx._mul_nums(self.num, self.den, other.num, other.den))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, operator.mul, self.ctx.one)

    def inverse(self):
        """Multiplicative inverse: q/p of a rational p/q, else c / N(a), where
        c is the product of the conjugates sigma_k(a), zeta -> zeta^k, over
        1 < k < m coprime to m, and the norm N(a) = a c is a nonzero
        rational (Washington, Introduction to Cyclotomic Fields, Ch. 2).
        sigma_k and sigma_-k pair up: c = conj(a) times the sigma_k(b), 1 < k
        < m/2, of the real b = a conj(a).

        No command inverts a scalar: the witness of ``classify`` divides by
        none.  The callers left are ``/``, a negative power, the
        elimination in ``solver`` that the test oracles solve with, and
        library users; the benchmark's tracer (``perfbench/tracing.py``)
        wraps this method and ``/`` by name, so they stay while it does."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero scalar")
        if not any(self.num[1:]):
            return CyclotomicScalar(self.ctx, (self.den,) + self.num[1:], self.num[0])
        ctx, c = self.ctx, self.conjugate()
        b = self * c
        for k in range(3, ctx.m // 2, 2):
            if math.gcd(k, ctx.m) == 1:
                c *= b._substitute(ctx, k)
        norm = self * c
        return c * CyclotomicScalar(ctx, (norm.den,) + norm.num[1:], norm.num[0])

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self):
        """Complex conjugation, the field automorphism zeta -> zeta^(m-1)."""
        return self._substitute(self.ctx, -1)

    def is_norm_one(self):
        """Whether a * conj(a) = 1, the exact form of |a| = 1."""
        return (self * self.conjugate()) == 1

    def embed(self, big_ctx):
        """Image in a context whose conductor is a multiple of this one's."""
        ctx = self.ctx
        if big_ctx is ctx:
            return self
        if big_ctx.n != ctx.n or big_ctx.m % ctx.m != 0:
            raise ContextMismatchError(
                f"cannot embed m={ctx.m} scalars into {big_ctx}"
            )
        return self._substitute(big_ctx, big_ctx.m // ctx.m)

    def _substitute(self, ctx, step):
        """The sum of v zeta^(step j) in ``ctx`` over this scalar's
        coordinates v of zeta^j: its image under zeta -> zeta^step."""
        num, den = self.num, self.den
        s = _size(num, den)
        terms = [(j * step % ctx.m, v) for j, v in enumerate(num) if v]
        # A pass over the coordinates, one over the image's, a denominator's
        # gcds, then the nonzeros walked, each weighed by the coordinates' size.
        _meter.charge(20 + len(num) + ctx.degree + (den != 1) * 4 * len(terms) * s * s)
        out = [0] * ctx.degree
        ctx._walk(out, terms, s)
        return CyclotomicScalar(ctx, out, den)

