"""Exact point counts for the Hermitian and symplectic families.

Each affine count is a count of tuples whose values sum to a target:
sum x_i^{q+1} = c, sum (x_i^q y_i - x_i y_i^q) = c and their variants
with a term z^q +- z.  The distribution of each summand's values is
tabulated once on integer encodings, whose base-p digits are
coordinates on the additive group (Z/p)^d of the level, and the count
is an exact additive-character sum (Lidl and Niederreiter, Finite
Fields, ch. 5):

- The spectrum A_f(u) = sum_k f(k) x^<u,k> lies in Z[x]/(x^p - 1),
  where <u,k> is the digit dot product mod p.  A radix-p butterfly
  computes it for every u, one pass per digit.  It is kept as one int
  with p slots of w bits: x^s rotates the slots, and a ring product is
  one int product folded onto p slots.  Masses are non-negative, so no
  slot overflows while N times the number of tuples is below 2^w.
- In B = sum_u prod_i A_i(u)^{n_i} x^{-<u,c>} a tuple with sum c adds N
  to slot 0 and any other tuple N/p to every slot, so the count is
  (B_0 - B_1)/N.  Each count checks B_1 = ... = B_{p-1} and
  N | B_0 - B_1, and raises ArithmeticError if either fails.

Projective counts enumerate by the leading nonzero coordinate
(normalized to 1).  count_points_naive shares none of this: it tests
each equation on coefficient tuples with the level's polynomial
arithmetic, and so is an independent route.
"""

from __future__ import annotations

import itertools
import operator
from math import gcd, prod
from typing import NamedTuple

from .fields import TowerContext, FieldError, power


class BudgetExceededError(RuntimeError):
    """Raised when a requested count would exceed the operation budget."""


VARIETY_KINDS = (
    "S", "Y", "Ytilde", "X",
    "Sprime", "Yprime", "Ytildeprime", "Xprime",
    "Xbar", "D", "Zprime", "Zprime0", "Uprime",
)

_PAIR_KINDS = {"Sprime", "Yprime", "Ytildeprime", "Xprime",
               "Zprime", "Zprime0", "Uprime"}
_SURFACE_KINDS = {"Xbar", "D"}


class _VarietySpecFields(NamedTuple):
    kind: str
    n: int = 1


class VarietySpec(_VarietySpecFields):
    """A variety family member: kind plus the index n >= 1.  The fixed
    surface kinds Xbar and D ignore n.  The checks live on this subclass
    because a NamedTuple body cannot define __new__."""
    __slots__ = ()

    def __new__(cls, kind: str, n: int = 1):
        if kind not in VARIETY_KINDS:
            raise ValueError(f"unknown variety kind {kind!r}")
        if n < 1:
            raise ValueError("n must be at least 1")
        return super().__new__(cls, kind, n)


class _LevelArith:
    """Budgeted distributions and character sums on one tower level.

    A distribution is a list of N non-negative masses indexed by
    encoding (the field's 1 has encoding 1).  Every count made here
    ranges over at most N^dim tuples, which fixes the slot width w.  The
    budget is charged N per distribution, N d p per spectrum and N per
    product of spectra.

    The tower's table "spectra", {(level key, w): {masses: spectrum}},
    keeps the spectra of one (level, w) at a time, so that the counts of
    a kind list share them.  A spectrum taken from there is charged as
    if computed, so the budget a count spends does not depend on what
    was counted before.  The counts draw from four distributions at
    most, so the cache stays bounded however many counts run.
    """

    def __init__(self, ctx: TowerContext, key: int, budget: int, dim: int):
        self.ctx = ctx
        self.level = ctx.levels[key]
        self.key = key
        self.N = self.level.size
        self.budget = budget
        self.ops = 0
        self._spend(self.N)
        self.frob = self.level.power_map(ctx.q)
        self.w = (self.N ** (dim + 1)).bit_length()

    def _spend(self, amount: int):
        self.ops += amount
        if self.ops > self.budget:
            raise BudgetExceededError(
                f"operation budget {self.budget} exceeded at level q^{self.key}")

    def _dist(self, values) -> list[int]:
        self._spend(self.N)
        f = [0] * self.N
        for v in values:
            f[v] += 1
        return f

    def dist_hermitian(self) -> list[int]:
        """Distribution of x -> x^{q+1}."""
        return self._dist(self.level.power_map(self.ctx.q + 1))

    def dist_artin_schreier(self, sign: int) -> list[int]:
        """Distribution of z -> z^q + sign * z.  Like every distribution
        here it is invariant under negation: substitute -z for z."""
        lv = self.level
        return self._dist(lv.add_enc(fz, z if sign == 1 else lv.neg_enc(z))
                          for z, fz in enumerate(self.frob))

    def dist_pair(self) -> list[int]:
        """Distribution of (x, y) -> x^q y - x y^q, from linearity.

        x = 0 gives 0, N times.  For x != 0 put y = x t: the value is
        x^{q+1} (t - t^q), and t -> t - t^q is F_p-linear with kernel
        F_q, so it takes each value of its image W_0 q times.  The values
        are thus x^{q+1} W_0, (#distinct x^{q+1}) |W_0| ~ N^2/(q(q+1))
        products rather than N^2 pairs.  Moreover x -> x^{q+1} takes
        each unit v with log v = 0 mod g = gcd(q+1, N-1) g times, so the
        mass of v != 0 is g #{t : log(t - t^q) = log v mod g}: one pass
        over t.  Swapping x and y negates the form, so the distribution
        is invariant under negation.
        """
        das = self.dist_artin_schreier(-1)  # that of t - t^q, by t -> -t
        log = self.level.log_tables()[1]
        N, g = self.N, gcd(self.ctx.q + 1, self.N - 1)
        self._spend(N)
        cosets = [0] * g
        for w in range(1, N):
            cosets[log[w] % g] += das[w]
        return [N + (N - 1) * das[0]] + [g * cosets[log[v] % g]
                                         for v in range(1, N)]

    def spectrum(self, f: list[int]) -> list[int]:
        """The packed A_f(u) for every u, in encoding order, as a new
        list: the cached one stays intact whatever the caller does.

        Each pass of the butterfly transforms the top digit and moves it
        to the bottom, so after one pass per digit all are in place.
        """
        N, p, w = self.N, self.level.p, self.w
        self._spend(N * self.level.degree * p)
        spectra = self.ctx.table("spectra", dict)
        if (self.key, w) not in spectra:
            spectra.clear()
        known = spectra.setdefault((self.key, w), {})
        masses = tuple(f)
        if masses in known:
            return list(known[masses])
        mask = (1 << w * p) - 1
        a = list(f)
        m = N // p
        for _ in range(self.level.degree):
            parts = [a[i * m:(i + 1) * m] for i in range(p)]
            a[0::p] = map(sum, zip(*parts))
            for t in range(1, p):
                lo, hi = w * t, w * (p - t)
                acc = parts[-1]
                for part in reversed(parts[:-1]):  # Horner's rule in x^t
                    acc = [x + ((y << lo | y >> hi) & mask)
                           for x, y in zip(part, acc)]
                a[t::p] = acc
        known[masses] = a
        return list(a)

    def _mul(self, a: list[int], b: list[int]) -> list[int]:
        self._spend(self.N)
        pw = self.w * self.level.p
        mask = (1 << pw) - 1
        return [(v & mask) + (v >> pw) for v in map(operator.mul, a, b)]

    def count(self, factors, c: int = 0) -> int:
        """The number of tuples that sum to c, drawing n values from the
        distribution with spectrum A for each (A, n) in factors."""
        N, p, w = self.N, self.level.p, self.w
        if N * prod(a[0] ** n for a, n in factors) >> w:  # A(0) is the mass
            raise ArithmeticError(f"{w}-bit slots are too narrow")
        acc = [1] * N
        for a, n in factors:
            acc = power(self._mul, acc, a, n)
        dots = [0]  # <u, c> for every u, one digit at a time
        for ci in self.level.decode(c):
            dots = [(s + j * ci) % p for j in range(p) for s in dots]
        by_dot = [0] * p
        for v, r in zip(acc, dots):
            by_dot[r] += v
        low = (1 << w) - 1  # B_s collects slot s + r of the terms x^-r
        B = [sum(by_dot[r] >> w * ((s + r) % p) & low for r in range(p))
             for s in range(p)]
        if len(set(B[1:])) != 1 or (B[0] - B[1]) % N:
            raise ArithmeticError(
                f"character sum check failed at level q^{self.key}: "
                f"slots {B} for target {c}")
        return (B[0] - B[1]) // N


def _proj_space_count(N: int, dim: int) -> int:
    return sum(N ** i for i in range(dim + 1))


def count_points(ctx: TowerContext, spec: VarietySpec, level: int,
                 budget: int = 50_000_000) -> int:
    """Number of rational points of spec over the tower level (1, 2, 4)."""
    if level not in ctx.levels:
        raise FieldError(f"level must be one of {tuple(ctx.levels)}")
    n, kind = spec.n, spec.kind
    # every count below ranges over at most N^dim tuples
    dim = (3 if kind in _SURFACE_KINDS else
           2 * n + 1 if kind in _PAIR_KINDS else n + 1)
    ar = _LevelArith(ctx, level, budget, dim)
    N = ar.N

    if kind in ("S", "Y", "Ytilde", "X"):
        dh = ar.spectrum(ar.dist_hermitian())
        if kind == "Ytilde":
            return ar.count([(dh, n)], 1)
        if kind == "X":  # sum x_i^{q+1} = z^q + z
            das = ar.spectrum(ar.dist_artin_schreier(+1))
            return ar.count([(dh, n), (das, 1)])
        # S_n: leading coordinate j (0-based), x_j = 1, earlier zero, so
        # the n - 1 - j later terms sum to -1.
        minus_one = ar.level.neg_enc(1)
        total = sum(ar.count([(dh, n - 1 - j)], minus_one) for j in range(n))
        if kind == "S":
            return total
        return _proj_space_count(N, n - 1) - total  # Y

    if kind in _PAIR_KINDS:
        dpair = ar.spectrum(ar.dist_pair())  # x^q y - x y^q
        if kind == "Ytildeprime":
            return ar.count([(dpair, n)], 1)
        if kind in ("Zprime", "Zprime0", "Uprime"):
            zero = ar.count([(dpair, n)])
            if kind == "Zprime":
                return zero
            if kind == "Zprime0":
                return zero - 1  # remove the origin
            return N ** (2 * n) - zero  # Uprime: nonzero fiber values
        das = ar.spectrum(ar.dist_artin_schreier(-1))  # z^q - z
        if kind == "Xprime":  # z^q - z = sum (x_i y_i^q - x_i^q y_i)
            return ar.count([(dpair, n), (das, 1)])
        # S'_{2n} projective, coordinates x_1..x_n, y_1..y_n.  Leading
        # x_{j+1} = 1: its pair gives y - y^q; y_1..y_j are free.
        total = sum(ar.count([(dpair, n - 1 - j), (das, 1)]) * N ** j
                    for j in range(n))
        # leading coordinate among the y's: all x_i = 0, form vanishes.
        total += _proj_space_count(N, n - 1)
        if kind == "Sprime":
            return total
        return _proj_space_count(N, 2 * n - 1) - total  # Yprime

    # The compactified surface Z2^q Z3 - Z2 Z3^q = Z0 Z1^q - Z0^q Z1.
    dpair = ar.dist_pair()
    # Its boundary Z3 = 0, where 0 = Z0 Z1^q - Z0^q Z1: [Z0:Z1:1:0], and
    # [1:y:0:0] with y^q = y, and [0:1:0:0].
    boundary = dpair[0] + sum(1 for y, fy in enumerate(ar.frob) if fy == y) + 1
    if kind == "D":
        return boundary
    # The chart Z3 = 1: z^q - z = x y^q - x^q y.
    das = ar.spectrum(ar.dist_artin_schreier(-1))
    return boundary + ar.count([(ar.spectrum(dpair), 1), (das, 1)])


# ---------------------------------------------------------------------------
# Naive enumerators, kept as an independent route for small cross-checks.

def count_points_naive(ctx: TowerContext, spec: VarietySpec, level: int,
                       budget: int = 2_000_000) -> int:
    """Brute-force enumeration; only viable for tiny instances."""
    lv = ctx.levels[level]
    N = lv.size
    q = ctx.q
    n = spec.n
    kind = spec.kind

    def herm_sum(xs):
        acc = lv.zero
        for x in xs:
            acc = lv.add(acc, lv.mul(x, lv.pow(x, q)))
        return acc

    def pair_sum(xs, ys):
        acc = lv.zero
        for x, y in zip(xs, ys):
            acc = lv.add(acc, lv.sub(lv.mul(lv.pow(x, q), y),
                                     lv.mul(x, lv.pow(y, q))))
        return acc

    if kind == "Ytilde":
        if N ** n > budget:
            raise BudgetExceededError("naive enumeration too large")
        return sum(1 for xs in itertools.product(lv.elements(), repeat=n)
                   if herm_sum(xs) == lv.one)
    if kind == "X":
        if N ** (n + 1) > budget:
            raise BudgetExceededError("naive enumeration too large")
        count = 0
        for zs in lv.elements():
            lhs = lv.add(lv.pow(zs, q), zs)
            for xs in itertools.product(lv.elements(), repeat=n):
                if herm_sum(xs) == lhs:
                    count += 1
        return count
    if kind in ("S", "Y"):
        if _proj_space_count(N, n - 1) * N > budget:
            raise BudgetExceededError("naive enumeration too large")
        count = 0
        for j in range(n):
            for xs in itertools.product(lv.elements(), repeat=n - 1 - j):
                full = (lv.zero,) * j + (lv.one,) + xs
                if herm_sum(full) == lv.zero:
                    count += 1
        if kind == "S":
            return count
        return _proj_space_count(N, n - 1) - count
    if kind == "Ytildeprime":
        if N ** (2 * n) > budget:
            raise BudgetExceededError("naive enumeration too large")
        count = 0
        for xs in itertools.product(lv.elements(), repeat=n):
            for ys in itertools.product(lv.elements(), repeat=n):
                if pair_sum(xs, ys) == lv.one:
                    count += 1
        return count
    raise ValueError(f"no naive enumerator for kind {kind!r}")

