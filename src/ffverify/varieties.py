"""Exact point counts for the Hermitian and symplectic families.

Affine counts use value-distribution convolution over the additive group
of the ambient field: the distribution of x -> x^{q+1} (or of the pair
form (x, y) -> x^q y - x y^q) is tabulated once, convolved n times, and
evaluated.  Projective counts enumerate by the leading nonzero
coordinate (normalized to 1), so every projective point is counted
through its canonical representative.

The kernels key every value by its integer encoding and do all their
arithmetic through the level's log, Zech and power-map tables
(Level.add_enc, mul_enc, neg_enc, power_map).  count_points_naive
shares none of it: it enumerates coefficient tuples with the level's
polynomial arithmetic, and so is an independent route.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass

from .fields import TowerContext, FieldError


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


@dataclass(frozen=True)
class VarietySpec:
    """A variety family member: kind plus the index n (ignored for the
    fixed surface kinds)."""
    kind: str
    n: int = 1

    def __post_init__(self):
        if self.kind not in VARIETY_KINDS:
            raise ValueError(f"unknown variety kind {self.kind!r}")
        if self.kind not in _SURFACE_KINDS and self.n < 1:
            raise ValueError("n must be at least 1")


class _LevelArith:
    """Budgeted distribution kernels on one tower level, keyed by
    integer encodings (the field's 1 has encoding 1)."""

    def __init__(self, ctx: TowerContext, key: int, budget: int):
        self.ctx = ctx
        self.level = ctx.levels[key]
        self.key = key
        self.N = self.level.size
        self.budget = budget
        self.ops = 0
        self._spend(self.N)
        self.frob = self.level.power_map(ctx.q)

    def _spend(self, amount: int):
        self.ops += amount
        if self.ops > self.budget:
            raise BudgetExceededError(
                f"operation budget {self.budget} exceeded at level q^{self.key}")

    def negate(self, d: Counter) -> Counter:
        neg = self.level.neg_enc
        return Counter({neg(v): c for v, c in d.items()})

    def dist_hermitian(self) -> Counter:
        """Distribution of x -> x^{q+1}."""
        self._spend(self.N)
        return Counter(self.level.power_map(self.ctx.q + 1))

    def dist_pair(self, sign: int) -> Counter:
        """Distribution of (x, y) -> x^q y - x y^q (sign=+1) or its
        negative (sign=-1)."""
        self._spend(self.N * self.N)
        lv = self.level
        add, mul, neg = lv.add_enc, lv.mul_enc, lv.neg_enc
        out = Counter()
        for i, fi in enumerate(self.frob):
            for j, fj in enumerate(self.frob):
                out[add(mul(fi, j), neg(mul(i, fj)))] += 1
        return out if sign == 1 else self.negate(out)

    def dist_artin_schreier(self, sign: int) -> Counter:
        """Distribution of z -> z^q + sign * z."""
        self._spend(self.N)
        lv = self.level
        return Counter(lv.add_enc(fz, z if sign == 1 else lv.neg_enc(z))
                       for z, fz in enumerate(self.frob))

    def convolve(self, d1: Counter, d2: Counter) -> Counter:
        self._spend(len(d1) * len(d2))
        add = self.level.add_enc
        out = Counter()
        for v1, c1 in d1.items():
            for v2, c2 in d2.items():
                out[add(v1, v2)] += c1 * c2
        return out

    def iterate_convolve(self, d: Counter, n: int) -> Counter:
        acc = Counter({0: 1})
        for _ in range(n):
            acc = self.convolve(acc, d)
        return acc

    def shift(self, d: Counter, v0: int) -> Counter:
        add = self.level.add_enc
        return Counter({add(v, v0): c for v, c in d.items()})


def _proj_space_count(N: int, dim: int) -> int:
    return sum(N ** i for i in range(dim + 1))


def count_points(ctx: TowerContext, spec: VarietySpec, level: int,
                 budget: int = 50_000_000) -> int:
    """Number of rational points of spec over the tower level (1, 2, 4)."""
    if level not in ctx.levels:
        raise FieldError(f"level must be one of {tuple(ctx.levels)}")
    ar = _LevelArith(ctx, level, budget)
    N = ar.N
    n = spec.n
    kind = spec.kind

    if kind in ("S", "Y", "Ytilde", "X"):
        dh = ar.dist_hermitian()
        if kind == "Ytilde":
            return ar.iterate_convolve(dh, n)[1]
        if kind == "X":
            das = ar.dist_artin_schreier(+1)
            dx = ar.iterate_convolve(dh, n)
            return sum(das[v] * c for v, c in dx.items())
        # S_n: leading coordinate j (0-based), x_j = 1, earlier zero.
        total = 0
        for j in range(n):
            rest = ar.iterate_convolve(dh, n - 1 - j)
            rest = ar.shift(rest, 1)  # the x_j = 1 term
            total += rest[0]
        if kind == "S":
            return total
        return _proj_space_count(N, n - 1) - total  # Y

    if kind in _PAIR_KINDS:
        dplus = ar.dist_pair(+1)   # x^q y - x y^q
        if kind == "Ytildeprime":
            return ar.iterate_convolve(dplus, n)[1]
        if kind == "Xprime":
            # z^q - z = sum (x_i y_i^q - x_i^q y_i)
            das = ar.dist_artin_schreier(-1)
            dx = ar.iterate_convolve(ar.negate(dplus), n)
            return sum(das[v] * c for v, c in dx.items())
        if kind in ("Zprime", "Zprime0", "Uprime"):
            dx = ar.iterate_convolve(ar.negate(dplus), n)
            if kind == "Zprime":
                return dx[0]
            if kind == "Zprime0":
                return dx[0] - 1  # remove the origin
            return N ** (2 * n) - dx[0]  # Uprime: nonzero fiber values
        # S'_{2n} projective: coordinates ordered x_1..x_n, y_1..y_n.
        # distribution of y -> y - y^q  (x = 1 in its pair)
        dy = ar.negate(ar.dist_artin_schreier(-1))
        total = 0
        for j in range(n):  # leading coordinate x_{j+1}
            rest = ar.iterate_convolve(dplus, n - 1 - j)
            rest = ar.convolve(rest, dy)
            total += rest[0] * N ** j  # y_1..y_j free with zero x-partners
        # leading coordinate among the y's: all x_i = 0, form vanishes.
        total += _proj_space_count(N, n - 1)
        if kind == "Sprime":
            return total
        return _proj_space_count(N, 2 * n - 1) - total  # Yprime

    if kind == "Xbar":
        return _count_xbar_chart(ar) + _count_boundary(ar)
    if kind == "D":
        return _count_boundary(ar)
    raise ValueError(f"unhandled kind {kind!r}")


def _count_xbar_chart(ar: _LevelArith) -> int:
    """Points [Z0:Z1:Z2:1] with Z2^q Z3 - Z2 Z3^q = Z0 Z1^q - Z0^q Z1,
    i.e. z^q - z = x y^q - x^q y in the chart Z3 = 1."""
    das = ar.dist_artin_schreier(-1)
    dpair = ar.dist_pair(-1)  # x y^q - x^q y
    return sum(das[v] * c for v, c in dpair.items())


def _count_boundary(ar: _LevelArith) -> int:
    """The hyperplane section Z3 = 0: there 0 = Z0 Z1^q - Z0^q Z1."""
    dpair = ar.dist_pair(-1)
    with_z2 = dpair[0]  # [Z0:Z1:1:0]
    # [Z0:Z1:0:0] with the same equation: leading coordinate 1, so
    # [1:y:0:0] with y^q = y, and [0:1:0:0].
    line = sum(1 for y, fy in enumerate(ar.frob) if fy == y) + 1
    return with_z2 + line


# ---------------------------------------------------------------------------
# Quotient models for the Dickson-style invariants.

def dickson_sl2_quotient_count(ctx: TowerContext, n: int, level: int,
                               budget: int = 50_000_000) -> int:
    """Count of the affine model {sum s_i = 1} x A^n of the SL2-quotient
    of the primed hypersurface; equals N^{2n-1}."""
    ar = _LevelArith(ctx, level, budget)
    uniform = Counter({k: 1 for k in range(ar.N)})
    hyper = ar.iterate_convolve(uniform, n)[1]
    return hyper * ar.N ** n


def dickson_u_quotient_count(ctx: TowerContext, n: int, level: int,
                             budget: int = 50_000_000) -> int:
    """Count of {sum s_i t_i = 1} in A^{2n} over the given level."""
    ar = _LevelArith(ctx, level, budget)
    ar._spend(ar.N * ar.N)
    mul = ar.level.mul_enc
    dprod = Counter(mul(i, j) for i in range(ar.N) for j in range(ar.N))
    return ar.iterate_convolve(dprod, n)[1]


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

    import itertools
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


# ---------------------------------------------------------------------------
# Export.

def counts_to_csv(rows) -> str:
    """rows: iterable of (kind, n, level, count)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["variety", "n", "level", "count"])
    for kind, n, level, count in rows:
        w.writerow([kind, n, level, count])
    return buf.getvalue()
