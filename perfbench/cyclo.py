"""Exact arithmetic owned by the benchmark, independent of ``radford.scalars``.

The answer key must not lean on the code it checks, so the benchmark keeps
its own small implementations:

* ``Cyclo(m)``: Q(zeta_m) in the power basis modulo Phi_m, with Phi_m from
  the Moebius product formula (the program divides X^m - 1 instead);
* Gaussian rationals as ``Cyclo(4)``, enough for every scan grid and
  every n = 2 matrix the workloads generate.
"""

from __future__ import annotations

from fractions import Fraction


def _mobius(k):
    out, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    return -out if k > 1 else out


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pdiv_exact(num, den):
    """Quotient of integer polynomials (ascending), den monic, no remainder."""
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            q[k - dd] = c
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


def cyclotomic_poly(m):
    """Phi_m ascending, as prod over d | m of (X^d - 1)^mu(m/d)."""
    top, bottom = [1], [1]
    for d in range(1, m + 1):
        if m % d == 0:
            mu = _mobius(m // d)
            factor = [-1] + [0] * (d - 1) + [1]
            if mu == 1:
                top = _pmul(top, factor)
            elif mu == -1:
                bottom = _pmul(bottom, factor)
    if bottom[-1] < 0:
        bottom = [-c for c in bottom]
        top = [-c for c in top]
    return _pdiv_exact(top, bottom)


class Cyclo:
    """Q(zeta_m); an element is a tuple of phi(m) Fractions."""

    _cache = {}

    def __new__(cls, m):
        hit = cls._cache.get(m)
        if hit is None:
            hit = super().__new__(cls)
            hit.m = m
            hit.phi = cyclotomic_poly(m)
            hit.degree = len(hit.phi) - 1
            cls._cache[m] = hit
        return hit

    def reduce(self, poly):
        poly = [Fraction(c) for c in poly]
        d = self.degree
        for k in range(len(poly) - 1, d - 1, -1):
            c = poly[k]
            if c:
                for j in range(d + 1):
                    poly[k - d + j] -= c * self.phi[j]
        poly = poly[:d] + [Fraction(0)] * (d - len(poly))
        return tuple(poly)

    def zeta(self, k):
        k %= self.m
        return self.reduce([0] * k + [1])

    def gauss(self, re, im=0):
        """re + im*i with i = zeta^(m/4); needs 4 | m."""
        if self.m % 4:
            raise ValueError(f"i is not in Q(zeta_{self.m})")
        return self.add(self.scale(self.zeta(0), re),
                        self.scale(self.zeta(self.m // 4), im))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def scale(self, a, q):
        q = Fraction(q)
        return tuple(x * q for x in a)

    def mul(self, a, b):
        return self.reduce(_pmul(list(a), list(b)))

    def conj(self, a):
        acc = [Fraction(0)] * (self.m + 1)
        for j, c in enumerate(a):
            if c:
                acc[(self.m - j) % self.m] += c
        return self.reduce(acc)

    def embed(self, a, big):
        """Image of an element of Q(zeta_m) in Q(zeta_big), m | big."""
        if big.m % self.m:
            raise ValueError(f"Q(zeta_{self.m}) does not embed in Q(zeta_{big.m})")
        step = big.m // self.m
        acc = [Fraction(0)] * (step * len(a) + 1)
        for j, c in enumerate(a):
            acc[j * step] += c
        return big.reduce(acc)


# Gaussian rationals are Q(zeta_4): (re, im) in the power basis 1, i.

GAUSS = Cyclo(4)


def g(re, im=0):
    return (Fraction(re), Fraction(im))


def g_norm(a):
    return a[0] * a[0] + a[1] * a[1]


def g_text(a):
    """Expression text the program's grammar accepts, e.g. '3/5+4/5*i'."""
    re, im = a
    parts = []
    if re:
        parts.append(str(re))
    if im:
        mag = abs(im)
        body = "i" if mag == 1 else f"{mag}*i"
        parts.append(("-" if im < 0 else ("+" if parts else "")) + body)
    return "".join(parts) if parts else "0"


# 2x2 matrices as row-major 4-tuples over a field (Gaussian by default).

def mat_mul(a, b, f=GAUSS):
    return (
        f.add(f.mul(a[0], b[0]), f.mul(a[1], b[2])),
        f.add(f.mul(a[0], b[1]), f.mul(a[1], b[3])),
        f.add(f.mul(a[2], b[0]), f.mul(a[3], b[2])),
        f.add(f.mul(a[2], b[1]), f.mul(a[3], b[3])),
    )


def mat_conj(a, f=GAUSS):
    return tuple(f.conj(x) for x in a)


def mat_det(a, f=GAUSS):
    return f.sub(f.mul(a[0], a[3]), f.mul(a[1], a[2]))


def mat_inv(a):
    """Inverse of an invertible Gaussian matrix: adj(a) * conj(d) / abs(d)^2."""
    d = mat_det(a)
    s = GAUSS.scale(GAUSS.conj(d), 1 / g_norm(d))
    neg = GAUSS.scale(s, -1)
    return (GAUSS.mul(a[3], s), GAUSS.mul(a[1], neg),
            GAUSS.mul(a[2], neg), GAUSS.mul(a[0], s))


IDENTITY = (g(1), g(0), g(0), g(1))
