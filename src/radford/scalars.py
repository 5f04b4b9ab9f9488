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
of m, not from tables, so any valid conductor works.

Internally a scalar stores an integer numerator vector plus one positive
denominator (Phi_m is monic over Z, so reduction never leaves that form);
the ``coords`` property exposes the Fraction view.  Multiplication is
memoized per context because verification loops hit a tiny set of scalar
values billions of times.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ContextMismatchError, KernelError

# Exact rationals are stdlib Fractions: reduced, positive denominator.
Rational = Fraction

_MUL_CACHE_LIMIT = 1 << 18

# Largest conductor make_context accepts.  A context holds a table of
# about m * phi(m) integers and every product costs phi(m)^2 operations,
# so an oversized --n or --m is refused up front instead of hanging.
MAX_CONDUCTOR = 1024

# Most digits an input number may take, written as a fraction p/q: a
# rational coordinate of a JSON file, and the bound ``parser._digit_bound``
# puts on everything an expression can evaluate to.  It sits far below
# Python's 4300-digit limit on int <-> str conversion, so the product of
# two inputs still prints, and it refuses (1+z)^100000 before its
# integers grow.
MAX_INPUT_DIGITS = 1000

# Most candidates ``classify.scan_star_candidates`` takes on, counted
# before any screening.  A grid of k values gives k^3 + (n - 2) k
# generator images to screen.  At n = 2 every c x + c' y passes both
# screens, so k^4 image pairs face the verifier as well; at n > 2 only
# the k multiples c x (or c y) pass at w = 1.  An admitted
# scan ends within about 2 s at the default conductor (--n 3 on 21 grid
# values: 1.7 s) and within about 7 s at m = 1020.
MAX_SCAN_CANDIDATES = 10_000

# Most field coordinates ``radford delta`` may compute, counted by
# ``coalgebra.delta_coords`` before D is computed: the (r + 1)(s + 1) terms
# of D(y^r x^s g^l) and the entries of the q-Pascal rows r and s behind
# their coefficients, phi(m) coordinates each.  The rows count because
# y^254 x alone has 510 terms but 32 385 row entries.  At m = 1020 the
# largest admitted inputs, such as y^13 x^13 g, take under a second.
MAX_DELTA_COORDS = 100_000


def _poly_trim(coeffs):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return coeffs[:i]


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
    """Shared, immutable data for Q(zeta_m) plus the distinguished elements.

    Use :func:`make_context`; constructing directly bypasses interning.
    """

    def __init__(self, n, m):
        self.n = n
        self.m = m
        self.phi_m = _cyclotomic_poly(m)
        self.degree = len(self.phi_m) - 1
        self.omega_exponent = m // n
        self.i_exponent = m // 4
        d = self.degree
        # zeta^k in the power basis for 0 <= k <= max(2d-2, m); integer
        # coordinates because Phi_m is monic over Z.
        top = [-c for c in self.phi_m[:d]]
        pows = [[0] * d for _ in range(max(2 * d - 1, m + 1))]
        for k in range(len(pows)):
            if k < d:
                pows[k][k] = 1
            else:
                prev = pows[k - 1]
                carry = prev[d - 1]
                row = [0] + prev[: d - 1]
                if carry:
                    for j in range(d):
                        row[j] += carry * top[j]
                pows[k] = row
        self._zeta_pow = tuple(tuple(row) for row in pows)
        if self._zeta_pow[m] != self._zeta_pow[0]:
            raise AssertionError(f"zeta^{m} != 1 in context m={m}")
        self._zeta_index = None
        self._mul_cache = {}
        self._omega_pows = None
        # i^2 = -1 and omega has order exactly n; cheap one-time checks.
        if (self.i(1) * self.i(1)) != self.from_int(-1):
            raise AssertionError(f"zeta^{self.i_exponent} does not square to -1")
        for k in range(1, n):
            if self.zeta(self.omega_exponent * k) == self.one:
                raise AssertionError(f"omega has order below n={n}")

    def __repr__(self):
        return f"FieldContext(n={self.n}, m={self.m})"

    # Contexts are interned; identity comparison is deliberate.
    __hash__ = object.__hash__

    @property
    def zero(self):
        return CyclotomicScalar(self, (0,) * self.degree, 1)

    @property
    def one(self):
        return self.zeta(0)

    def zeta(self, k=1):
        """zeta_m^k as a scalar."""
        return CyclotomicScalar(self, self._zeta_pow[k % self.m], 1)

    def omega(self, k=1):
        """omega^k where omega = zeta^(m/n) has multiplicative order n."""
        return self.zeta(self.omega_exponent * (k % self.n))

    def i(self, k=1):
        """i^k where i = zeta^(m/4)."""
        return self.zeta(self.i_exponent * (k % 4))

    def omega_pow(self, k):
        """Cached table of omega powers; the hot loops index it by exponent."""
        if self._omega_pows is None:
            self._omega_pows = tuple(self.omega(j) for j in range(self.n))
        return self._omega_pows[k % self.n]

    def from_int(self, v):
        return self.from_fraction(Fraction(v))

    def from_fraction(self, f):
        f = Fraction(f)
        num = [f.numerator] + [0] * (self.degree - 1)
        return CyclotomicScalar(self, num, f.denominator)

    def from_coords(self, coords):
        """Scalar from phi(m) rational coordinates in the power basis."""
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise KernelError(
                f"expected {self.degree} coordinates, got {len(coords)}"
            )
        den = math.lcm(*(c.denominator for c in coords)) if coords else 1
        num = [int(c * den) for c in coords]
        return CyclotomicScalar(self, num, den)

    def zeta_log(self, a):
        """Return k with a = zeta^k, or None; the table is built on first use."""
        if a.ctx is not self:
            raise ContextMismatchError("scalar from another context")
        if a.den != 1:
            return None
        if self._zeta_index is None:
            self._zeta_index = {self._zeta_pow[k]: k for k in range(self.m)}
        return self._zeta_index.get(a.num)

    def _mul_nums(self, n1, d1, n2, d2):
        key = (n1, d1, n2, d2) if n1 <= n2 else (n2, d2, n1, d1)
        hit = self._mul_cache.get(key)
        if hit is not None:
            return hit
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, a in enumerate(n1):
            if a:
                for j, b in enumerate(n2):
                    if b:
                        conv[i + j] += a * b
        out = conv[:d]
        pows = self._zeta_pow
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = pows[k]
                for j in range(d):
                    if row[j]:
                        out[j] += c * row[j]
        res = _normalize(out, d1 * d2)
        if len(self._mul_cache) >= _MUL_CACHE_LIMIT:
            self._mul_cache.clear()
        self._mul_cache[key] = res
        return res


def _normalize(num, den):
    if den < 0:
        den = -den
        num = [-v for v in num]
    g = den
    for v in num:
        if v:
            g = math.gcd(g, v)
    if g > 1:
        den //= g
        num = [v // g for v in num]
    return tuple(num), den


class CyclotomicScalar:
    """Element of Q(zeta_m): integer numerator vector over one denominator."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den=1):
        # num entries are ints; with den = 1 the vector is already canonical.
        if den != 1:
            num, den = _normalize(list(num), den)
        else:
            num = tuple(num)
        self.ctx = ctx
        self.num = num
        self.den = den

    # -- value protocol ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CyclotomicScalar):
            if self.ctx is not other.ctx and (
                self.ctx.n != other.ctx.n or self.ctx.m != other.ctx.m
            ):
                return False
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return (
                self.den == f.denominator
                and self.num[0] == f.numerator
                and not any(self.num[1:])
            )
        return NotImplemented

    def __hash__(self):
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((self.ctx.m, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    @property
    def is_zero(self):
        return not any(self.num)

    @property
    def coords(self):
        """The phi(m) rational coordinates in the power basis."""
        return tuple(Fraction(v, self.den) for v in self.num)

    def __repr__(self):
        return f"CyclotomicScalar({list(self.coords)}, m={self.ctx.m})"

    # -- field operations ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, CyclotomicScalar):
            if isinstance(other, (int, Fraction)):
                return self.ctx.from_fraction(Fraction(other))
            return None
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
        num, den = self.ctx._mul_nums(self.num, self.den, other.num, other.den)
        s = CyclotomicScalar.__new__(CyclotomicScalar)
        s.ctx, s.num, s.den = self.ctx, num, den
        return s

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        acc = self.ctx.one
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def inverse(self):
        """Multiplicative inverse via the extended gcd with Phi_m."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero scalar")
        phi = [Fraction(c) for c in self.ctx.phi_m]
        a = [Fraction(v, self.den) for v in self.num]
        # Extended Euclid tracking the cofactor of a only: u*a = g mod Phi_m.
        r0, r1 = phi, _poly_trim(a)
        u0, u1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            u0, u1 = u1, _poly_sub_frac(u0, _poly_mul_frac(q, u1))
            r0, r1 = r1, r
        if not r1:
            raise ZeroDivisionError("scalar shares a factor with Phi_m")
        g = r1[0]
        inv = [c / g for c in u1]
        _, rem = _poly_divmod(inv, phi)
        rem = rem + [Fraction(0)] * (self.ctx.degree - len(rem))
        return self.ctx.from_coords(rem)

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self):
        """Complex conjugation, the field automorphism zeta -> zeta^(m-1)."""
        ctx = self.ctx
        d = ctx.degree
        m = ctx.m
        out = [0] * d
        for j, v in enumerate(self.num):
            if v:
                row = ctx._zeta_pow[(m - j) % m]
                for t in range(d):
                    if row[t]:
                        out[t] += v * row[t]
        return CyclotomicScalar(ctx, out, self.den)

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
        step = big_ctx.m // ctx.m
        out = [0] * big_ctx.degree
        for j, v in enumerate(self.num):
            if v:
                row = big_ctx._zeta_pow[j * step]
                for t in range(big_ctx.degree):
                    if row[t]:
                        out[t] += v * row[t]
        return CyclotomicScalar(big_ctx, out, self.den)


def _poly_divmod(num, den):
    """(quotient, remainder); integer polynomials stay integral when den is monic."""
    num = list(num)
    dd = len(den) - 1
    lead = den[dd]
    q = [0] * max(len(num) - dd, 1)
    for k in range(len(num) - 1, dd - 1, -1):
        if num[k]:
            c = num[k] if lead == 1 else num[k] / lead
            q[k - dd] = c
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    return _poly_trim(q), _poly_trim(num)


def _poly_mul_frac(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub_frac(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] -= v
    return _poly_trim(out)


def unify_contexts(ctx_a, ctx_b):
    """Smallest shared context: same n, conductor lcm(m_a, m_b)."""
    if ctx_a is ctx_b:
        return ctx_a
    if ctx_a.n != ctx_b.n:
        raise ContextMismatchError(
            f"different orders n={ctx_a.n} and n={ctx_b.n}"
        )
    return make_context(ctx_a.n, math.lcm(ctx_a.m, ctx_b.m))
