"""Exact point counts for the Hermitian and symplectic families.

Each affine count is a count of tuples whose values sum to a target:
sum x_i^{q+1} = c, sum (x_i^q y_i - x_i y_i^q) = c and their variants
with a term z^q +- z.  The distribution f of each summand's values is
tabulated once on integer encodings, and the count is an exact
additive-character sum (Lidl and Niederreiter, Finite Fields, ch. 5)
for the pairing <u, k> = Tr(uk), Tr the absolute trace of the level
F_N onto F_p.  The pairing is nondegenerate: every F_p-linear form on
F_N is k -> Tr(uk) for exactly one u (ibid., Thm. 2.24), so
sum_u x^Tr(uk) is N x^0 at k = 0 and (N/p) sum_s x^s at k != 0.

- The spectrum A_f(u) = sum_k f(k) x^Tr(uk) lies in Z[x]/(x^p - 1).
  It is kept as one int with p slots of w bits: x^s rotates the slots,
  and a ring product is one int product folded onto p slots.  Masses
  are non-negative, so no slot overflows while N times the number of
  tuples is below 2^w.
- Each spectrum is read off the structure of its distribution in O(N).
  The Hermitian and pair distributions are constant on the cosets of
  the subgroup of index g = gcd(q + 1, N - 1) of F_N^*, the image of
  x -> x^{q+1}: f(gamma^b) = F[b mod g] for gamma the primitive element
  of the log tables.  With c = a + b,

      A(gamma^a) = f(0) + sum_b F[b mod g] x^Tr(gamma^c)
                 = f(0) + sum_{r<g} F[r] Hist[(a + r) mod g],

  Hist[s] = sum_{c = s mod g} x^Tr(gamma^c), and A(0) = sum_k f(k).  So
  A takes at most g + 1 values: the semiprimitive case of pure Gauss
  sums (Berndt, Evans and Williams, Gauss and Jacobi Sums, 11.6).
- The Artin-Schreier distributions are |ker L| 1_{im L} for the
  F_p-linear L(z) = z^q + sign z.  The trace is invariant under
  Frobenius, so Tr(u L(z)) = Tr((u^{q^-1} + sign u) z), and by
  nondegeneracy u is orthogonal to im L iff u^{q^-1} = -sign u, that
  is u^q = -sign u, that is L(u) = 0: (im L)^perp = ker L for both
  signs and every p.  So A(u) = N x^0 on ker L; elsewhere Tr(u .) is a
  nontrivial character of im L, which takes each value |im L|/p times,
  and A(u) = (N/p) sum_s x^s.
- In B = sum_u prod_i A_i(u)^{n_i} x^-Tr(uc) a tuple with sum c adds N
  to slot 0 and any other tuple N/p to every slot, so the count is
  (B_0 - B_1)/N.  The u with equal (A_1(u), ..., A_k(u), Tr(uc)) add
  equal terms, so B is summed by class, with one square and multiply
  per class and factor.  Each count checks B_1 = ... = B_{p-1} and
  N | B_0 - B_1, and raises ArithmeticError if either fails; each
  spectrum route checks the structure it assumes, and raises
  ArithmeticError if it is absent.

Projective counts are read off affine cones.  The forms
sum x_i^{q+1} and sum (x_i^q y_i - x_i y_i^q) are homogeneous of degree
q + 1, so F_N^* acts freely on their nonzero zeros, and its orbits are
the lines through the origin less the origin: a projective zero set
has (A - 1)/(N - 1) points when its cone has A affine zeros.  Each such
count checks that N - 1 divides A - 1, and raises ArithmeticError if
not.  The tests' brute-force count, in tests/reference.py, shares none
of this: it enumerates projective points by the leading nonzero
coordinate and tests each equation on coefficient tuples with the
level's polynomial arithmetic, and so is an independent route.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, prod
from typing import NamedTuple

from .fields import BudgetExceededError, TowerContext, FieldError, power


VARIETY_KINDS = (
    "S", "Y", "Ytilde", "X",
    "Sprime", "Yprime", "Ytildeprime", "Xprime",
    "Xbar", "D", "Zprime", "Zprime0", "Uprime",
)

# The operation budget of one count unless its caller gives one; the
# charges are those of _LevelArith.
DEFAULT_BUDGET = 50_000_000

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
    budget is charged by the shape of a count, not by the work it does:
    N per distribution, N d p per spectrum and N per product of spectra,
    as if each product ran for every u.  A budget must not depend on
    what is cached, or a count would pass or fail by what was counted
    before it in the process; so a spectrum read from the cache is
    charged as if computed.

    The tower's table "spectra", {(level key, w): {masses: spectrum}},
    keeps the spectra of one (level, w) at a time, so that the counts of
    a kind list share them.  The counts draw from four distributions at
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
        self.frob = ctx.frobenius(key)
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

    def artin_schreier(self, sign: int) -> list[int]:
        """L(z) = z^q + sign * z at every encoding z, in encoding order,
        kept on the tower per level and sign."""
        lv = self.level
        return self.ctx.table(("artin-schreier", self.key, sign), lambda: [
            lv.add_enc(fz, z if sign == 1 else lv.neg_enc(z))
            for z, fz in enumerate(self.frob)])

    def dist_artin_schreier(self, sign: int) -> list[int]:
        """Distribution of z -> z^q + sign * z.  Like every distribution
        here it is invariant under negation: substitute -z for z."""
        return self._dist(self.artin_schreier(sign))

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

    def _spectrum(self, f: list[int], build) -> list[int]:
        """The packed A_f(u) for every u, in encoding order, as a new
        list: the cached one stays intact whatever the caller does.
        build() computes it on a miss; a build that raises keeps
        nothing."""
        self._spend(self.N * self.level.degree * self.level.p)
        spectra = self.ctx.table("spectra", dict)
        if (self.key, self.w) not in spectra:
            spectra.clear()
        known = spectra.setdefault((self.key, self.w), {})
        masses = tuple(f)
        if masses not in known:
            known[masses] = build()
        return list(known[masses])

    def coset_spectrum(self, f: list[int]) -> list[int]:
        """The spectrum of f = dist_hermitian() or dist_pair(), read off
        its values F[r] on the cosets gamma^r <gamma^g> of F_N^* as the
        module docstring derives; ArithmeticError unless f is constant on
        each coset."""
        def build():
            exp, log = self.level.log_tables()
            tr, w = self.ctx.traces(self.key), self.w
            g = gcd(self.ctx.q + 1, self.N - 1)
            F = [f[k] for k in exp[:g]]
            if any(set(map(f.__getitem__, exp[s::g])) != {F[s]}
                   for s in range(g)):
                raise ArithmeticError(
                    f"a distribution at level q^{self.key} is not constant "
                    f"on the cosets of the index-{g} subgroup")
            hist = [sum(m << w * t for t, m in
                        Counter(map(tr.__getitem__, exp[s::g])).items())
                    for s in range(g)]
            by_coset = [f[0] + sum(F[r] * hist[(a + r) % g] for r in range(g))
                        for a in range(g)]
            return [sum(f)] + [by_coset[a % g] for a in log[1:]]
        return self._spectrum(f, build)

    def linear_spectrum(self, f: list[int], sign: int) -> list[int]:
        """The spectrum of f = dist_artin_schreier(sign): N x^0 on ker L
        and (N/p) sum_s x^s elsewhere, for L(z) = z^q + sign z, as the
        module docstring derives; ArithmeticError unless f is
        |ker L| 1_{im L}, that is f(L(z)) = |ker L| for every z and f
        has mass N."""
        def build():
            N, p, images = self.N, self.level.p, self.artin_schreier(sign)
            kernel = images.count(0)
            if sum(f) != N or any(f[v] != kernel for v in images):
                raise ArithmeticError(
                    f"a distribution at level q^{self.key} is not "
                    f"|ker L| 1_(im L) for L(z) = z^q + ({sign}) z")
            flat = N // p * sum(1 << self.w * s for s in range(p))
            return [flat if v else N for v in images]
        return self._spectrum(f, build)

    def count(self, factors, c: int = 0) -> int:
        """The number of tuples that sum to c, drawing n values from the
        distribution with spectrum A for each (A, n) in factors.  B is
        summed by class of (A_1(u), ..., A_k(u), Tr(uc)), with one power
        per class and factor, and charged N per product, as if it ran for
        every u."""
        N, p, w = self.N, self.level.p, self.w
        if N * prod(a[0] ** n for a, n in factors) >> w:  # A(0) is the mass
            raise ArithmeticError(f"{w}-bit slots are too narrow")
        self._spend(N * sum(n.bit_length() - 1 + n.bit_count()
                            for _, n in factors if n))
        if c:  # Tr(uc) for every u, read along the logs of u
            exp, log = self.level.log_tables()
            tr = self.ctx.traces(self.key)
            by_log = list(map(tr.__getitem__, exp[log[c]:] + exp[:log[c]]))
            dots = [0, *map(by_log.__getitem__, log[1:])]
        else:
            dots = [0] * N
        pw = w * p
        mask = (1 << pw) - 1

        def mul(x, y):  # the ring product, folded onto p slots
            v = x * y
            return (v & mask) + (v >> pw)
        by_dot = [0] * p
        for cls, m in Counter(zip(*(a for a, _ in factors), dots)).items():
            acc = 1
            for a, (_, n) in zip(cls, factors):
                acc = power(mul, acc, a, n)
            by_dot[cls[-1]] += m * acc
        low = (1 << w) - 1  # B_s collects slot s + r of the terms x^-r
        B = [sum(by_dot[r] >> w * ((s + r) % p) & low for r in range(p))
             for s in range(p)]
        if len(set(B[1:])) != 1 or (B[0] - B[1]) % N:
            raise ArithmeticError(
                f"character sum check failed at level q^{self.key}: "
                f"slots {B} for target {c}")
        return (B[0] - B[1]) // N

    def lines(self, zeros: int) -> int:
        """The points of a projective zero set whose affine cone has
        zeros points, (zeros - 1)/(N - 1) as the module docstring
        derives; ArithmeticError unless N - 1 divides zeros - 1."""
        points, rest = divmod(zeros - 1, self.N - 1)
        if rest:
            raise ArithmeticError(
                f"cone check failed at level q^{self.key}: {zeros} - 1 "
                f"affine zeros is not a multiple of {self.N} - 1")
        return points


def _proj_space_count(N: int, dim: int) -> int:
    return sum(N ** i for i in range(dim + 1))


def count_points(ctx: TowerContext, spec: VarietySpec, level: int,
                 budget: int = DEFAULT_BUDGET) -> int:
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
        dh = ar.coset_spectrum(ar.dist_hermitian())
        if kind == "Ytilde":
            return ar.count([(dh, n)], 1)
        if kind == "X":  # sum x_i^{q+1} = z^q + z
            das = ar.linear_spectrum(ar.dist_artin_schreier(+1), +1)
            return ar.count([(dh, n), (das, 1)])
        total = ar.lines(ar.count([(dh, n)]))  # S_n, from its cone
        if kind == "S":
            return total
        return _proj_space_count(N, n - 1) - total  # Y

    if kind in _PAIR_KINDS:
        dpair = ar.coset_spectrum(ar.dist_pair())  # x^q y - x y^q
        if kind == "Ytildeprime":
            return ar.count([(dpair, n)], 1)
        if kind == "Xprime":  # z^q - z = sum (x_i y_i^q - x_i^q y_i)
            das = ar.linear_spectrum(ar.dist_artin_schreier(-1), -1)
            return ar.count([(dpair, n), (das, 1)])
        zero = ar.count([(dpair, n)])  # the cone of S'_{2n}
        if kind == "Zprime":
            return zero
        if kind == "Zprime0":
            return zero - 1  # remove the origin
        if kind == "Uprime":
            return N ** (2 * n) - zero  # nonzero fiber values
        total = ar.lines(zero)
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
    das = ar.linear_spectrum(ar.dist_artin_schreier(-1), -1)
    return boundary + ar.count([(ar.coset_spectrum(dpair), 1), (das, 1)])
