"""Exact arithmetic in Q(zeta_m) and characters valued there.

Numbers are coefficient vectors modulo the m-th cyclotomic polynomial,
so every identity check is exact.  A number is int numerators over one
positive int denominator, in lowest terms, so sums and products build
no Fraction: sums of roots of unity, such as character values and Gauss
sums, have denominator 1, a larger one appears only after a division.
Every product goes through one kernel, _dot.  The conductor used for a
tower with q = p^e is m = p(q+1); since p and q+1 are coprime this field
contains both zeta_p = zeta_m^{q+1} and zeta_{q+1} = zeta_m^p.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .fields import TowerContext, FieldError, power, row_reduce


class CycError(ValueError):
    pass


def _intpoly_divexact(num, den):
    """Exact division of integer polynomials (low degree first), den monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num[:len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_coeffs(m: int) -> tuple:
    """Integer coefficients of the m-th cyclotomic polynomial, low first.

    A process-wide cache is right: the result is an immutable tuple fixed
    by m alone, every CycNumber of conductor m reads it, and the recursion
    over the divisors of m would otherwise repeat.
    """
    if m < 1:
        raise CycError("conductor must be positive")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _intpoly_divexact(poly, cyclotomic_coeffs(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(m: int):
    """x^j mod Phi_m for j = 0 .. m-1, as tuples of ints.

    A process-wide cache is right: the table is immutable and fixed by m
    alone, and every product and root of unity of conductor m reads it.
    """
    phi = cyclotomic_coeffs(m)
    deg = len(phi) - 1
    table = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(m):
        table.append(tuple(cur))
        lead = cur[deg - 1]
        nxt = [0] + cur[:deg - 1]
        if lead:
            for i in range(deg):
                nxt[i] -= lead * phi[i]
        cur = nxt
    return tuple(table)


def _make(m: int, num, den: int) -> "CycNumber":
    """num / den, int numerators over a positive int, put in lowest
    terms: the route of every arithmetic result, which checks no types."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [n // g for n in num]
    z = object.__new__(CycNumber)
    z.m, z.num, z.den = m, tuple(num), den
    return z


def _dot(m: int, xs, ys) -> "CycNumber":
    """sum_k xs[k] ys[k] in Q(zeta_m), the one product kernel: a
    schoolbook over the nonzero numerators into one unreduced array, on
    the common denominator of the terms, and one reduction mod Phi_m."""
    table = _power_table(m)
    deg = len(table[0])
    # x^deg = table[deg] mod Phi_m, read over its nonzero entries
    top = [(i, t) for i, t in enumerate(table[deg]) if t]
    den = lcm(*(x.den * y.den for x, y in zip(xs, ys)))
    acc = [0] * (2 * deg - 1)
    for x, y in zip(xs, ys):
        s = den // (x.den * y.den)
        ynz = [(j, s * b) for j, b in enumerate(y.num) if b]
        if ynz:
            for i, a in enumerate(x.num):
                if a:
                    for j, b in ynz:
                        acc[i + j] += a * b
    for k in range(2 * deg - 2, deg - 1, -1):
        c = acc[k]
        if c:
            for i, t in top:
                acc[k - deg + i] += c * t
    return _make(m, acc[:deg], den)


class CycNumber:
    """An element of Q(zeta_m), exact: int numerators num over one
    positive int den, in lowest terms, so == compares (num, den), also
    against an int or a Fraction.  It is not hashable."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, coeffs):
        self.m = m
        deg = len(cyclotomic_coeffs(m)) - 1
        cs = list(coeffs)
        if len(cs) > deg:
            raise CycError("coefficient vector too long")
        # exactly int or Fraction: a float is inexact, and a bool prints
        # as "True" in to_json
        if not all(type(c) is int or type(c) is Fraction for c in cs):
            raise CycError("coefficients must be int or Fraction")
        # the lcm of reduced denominators leaves the numerators coprime to it
        self.den = lcm(*(c.denominator for c in cs))
        self.num = tuple([c.numerator * (self.den // c.denominator) for c in cs]
                         + [0] * (deg - len(cs)))

    @property
    def coeffs(self) -> tuple:
        """The coefficients: ints when den is 1, else Fractions."""
        return (self.num if self.den == 1
                else tuple(Fraction(n, self.den) for n in self.num))

    @classmethod
    def from_rational(cls, m: int, r) -> "CycNumber":
        return cls(m, [r])

    @classmethod
    def root_of_unity(cls, m: int, k: int) -> "CycNumber":
        return _make(m, _power_table(m)[k % m], 1)

    def _check(self, other):
        if not isinstance(other, CycNumber):
            other = CycNumber.from_rational(self.m, other)
        if other.m != self.m:
            raise CycError("mixed conductors")
        return other

    def _plus(self, other, sign: int):
        other = self._check(other)
        a, b = other.den, sign * self.den
        return _make(self.m, [a * x + b * y for x, y in zip(self.num, other.num)],
                     self.den * other.den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        # a CycNumber is tested first: isinstance(x, Fraction) is an ABC check
        if not isinstance(other, CycNumber) and isinstance(other, (int, Fraction)):
            return _make(self.m, [a * other.numerator for a in self.num],
                         self.den * other.denominator)
        other = self._check(other)
        # a rational operand, zero included, scales the other one
        for a, b in ((self, other), (other, self)):
            if not any(a.num[1:]):
                return _make(self.m, [a.num[0] * x for x in b.num], a.den * b.den)
        return _dot(self.m, (self,), (other,))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:  # power would loop forever
            raise CycError("negative power: take inverse() first")
        return power(operator.mul, CycNumber.from_rational(self.m, 1), self, n)

    def __eq__(self, other):
        if not isinstance(other, CycNumber) and isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(self.m, other)
        return (isinstance(other, CycNumber) and self.m == other.m
                and self.num == other.num and self.den == other.den)

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        return f"Cyc({self.m}; {[str(c) for c in self.coeffs]})"

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> int | Fraction:
        if not self.is_rational():
            raise CycError("not rational")
        return self.num[0] if self.den == 1 else Fraction(self.num[0], self.den)

    def is_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

    def conjugate(self) -> "CycNumber":
        """Complex conjugation, zeta -> zeta^{-1}."""
        table = _power_table(self.m)
        out = [0] * len(self.num)
        for i, c in enumerate(self.num):
            if c:
                for j, t in enumerate(table[(-i) % self.m]):
                    out[j] += c * t
        return _make(self.m, out, self.den)

    def inverse(self) -> "CycNumber":
        """Inverse by solving self * x = 1 as a linear system over Q,
        whose columns are self * zeta^j."""
        if not self:
            raise CycError("inverse of zero")
        if self.is_rational():
            return CycNumber.from_rational(self.m, Fraction(1) / self.coeffs[0])
        deg = len(self.coeffs)
        cols = [(self * CycNumber.root_of_unity(self.m, j)).coeffs
                for j in range(deg)]
        rows = [[c[i] for c in cols] + [int(i == 0)] for i in range(deg)]
        # Fraction(1) / a, not 1 / a: with int entries 1 / a is a float
        row_reduce(rows, deg, lambda a: Fraction(1) / a, lambda a: a)
        result = CycNumber(self.m, [row[deg] for row in rows])
        if not (result * self == CycNumber.from_rational(self.m, 1)):
            raise ArithmeticError("inverse verification failed")
        return result

    def to_json(self):
        return {"conductor": self.m,
                "coeffs": [str(c) for c in self.coeffs]}


# ---------------------------------------------------------------------------
# Characters attached to a tower.

def conductor(ctx: TowerContext) -> int:
    return ctx.p * (ctx.q + 1)


class AdditiveCharacter:
    """psi_a(x) = zeta_p^{Tr_{F_q/F_p}(a x)} on F_q, for level-1
    encodings a and x."""

    def __init__(self, ctx: TowerContext, a: int):
        self.ctx = ctx
        self.a = a
        self.m = conductor(ctx)

    def __call__(self, x: int) -> CycNumber:
        ctx, lv = self.ctx, self.ctx.levels[1]
        tr = ctx.trace_to_prime(lv.mul_enc(self.a, lv.check_enc(x)), 1)
        return CycNumber.root_of_unity(self.m, (ctx.q + 1) * tr)

    def is_trivial(self) -> bool:
        return self.a == 0


def nu_sign(ctx: TowerContext, zeta: int) -> int:
    """nu(zeta) = (-1)^mu_index(zeta), nu the character of order 2 of
    mu_{q+1}, for p odd.  nu(h^i) = (-1)^i for a generator h, well
    defined as q + 1 is even.  h = (g^(q-1))^j with j prime to the even
    q + 1, so j is odd, and h^i = (g^(q-1))^(ij mod q+1) has an index of
    the parity of i: any generator gives the same nu."""
    if ctx.p == 2:
        raise FieldError("the quadratic character of mu_{q+1} needs p odd")
    return -1 if ctx.mu_index(zeta) % 2 else 1


def gauss_sum(ctx: TowerContext, psi: AdditiveCharacter) -> CycNumber:
    """Quadratic Gauss sum sum_{x in F_q^*} (x | F_q) psi(x)."""
    if ctx.p == 2:
        raise FieldError("quadratic Gauss sums need p odd")
    if psi.is_trivial():
        raise FieldError("the additive character must be nontrivial")
    return sum(ctx.legendre(x) * psi(x) for x in range(1, ctx.q))
