"""The tests' reference routes: a primality test, arithmetic on
coefficient tuples and a brute-force point count, each an independent
route that the program's own routes are checked against.  No run of the
program reaches them.

A level's element here is its tuple of coefficients over F_p, low degree
first, as Level.decode returns it.  level_add and level_sub are the F_p
polynomial sum and difference padded to the level's degree, level_encode
reads a tuple as its encoding and level_elements lists the tuples in
encoding order; products and powers are Level.mul and Level.pow.
count_points_naive tests each equation with that arithmetic, sizes
projective space itself and enumerates a projective point by its
leading nonzero coordinate, normalized to 1, so it shares nothing with
ffverify.varieties, which counts the affine cone instead.
"""

from __future__ import annotations

import itertools
from math import isqrt

from ffverify.fields import BudgetExceededError, _trim, _undigits, poly_sub


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def poly_add(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _pad(level, c):
    return tuple(c) + (0,) * (level.degree - len(c))


def level_add(level, a, b):
    return _pad(level, poly_add(a, b, level.p))


def level_sub(level, a, b):
    return _pad(level, poly_sub(a, b, level.p))


def level_encode(level, a) -> int:
    return _undigits(a, level.p)


def level_elements(level):
    return (level.decode(k) for k in range(level.size))


def _proj_space_count(N: int, dim: int) -> int:
    """The points of P^dim over F_N: 1 + N + ... + N^dim."""
    return sum(N ** i for i in range(dim + 1))


def count_points_naive(ctx, spec, level: int, budget: int = 2_000_000) -> int:
    """Brute-force enumeration; only viable for tiny instances."""
    lv = ctx.levels[level]
    N = lv.size
    q = ctx.q
    n = spec.n
    kind = spec.kind

    def herm_sum(xs):
        acc = lv.zero
        for x in xs:
            acc = level_add(lv, acc, lv.mul(x, lv.pow(x, q)))
        return acc

    def pair_sum(xs, ys):
        acc = lv.zero
        for x, y in zip(xs, ys):
            acc = level_add(lv, acc, level_sub(
                lv, lv.mul(lv.pow(x, q), y), lv.mul(x, lv.pow(y, q))))
        return acc

    if kind == "Ytilde":
        if N ** n > budget:
            raise BudgetExceededError("naive enumeration too large")
        return sum(1 for xs in itertools.product(level_elements(lv),
                                                 repeat=n)
                   if herm_sum(xs) == lv.one)
    if kind == "X":
        if N ** (n + 1) > budget:
            raise BudgetExceededError("naive enumeration too large")
        count = 0
        for zs in level_elements(lv):
            lhs = level_add(lv, lv.pow(zs, q), zs)
            for xs in itertools.product(level_elements(lv), repeat=n):
                if herm_sum(xs) == lhs:
                    count += 1
        return count
    if kind in ("S", "Y"):
        if _proj_space_count(N, n - 1) * N > budget:
            raise BudgetExceededError("naive enumeration too large")
        count = 0
        for j in range(n):
            for xs in itertools.product(level_elements(lv),
                                        repeat=n - 1 - j):
                full = (lv.zero,) * j + (lv.one,) + xs
                if herm_sum(full) == lv.zero:
                    count += 1
        if kind == "S":
            return count
        return _proj_space_count(N, n - 1) - count
    if kind in ("Sprime", "Yprime"):
        # P^{2n-1} with coordinates x_1..x_n, y_1..y_n in that order
        if _proj_space_count(N, 2 * n - 1) * N > budget:
            raise BudgetExceededError("naive enumeration too large")
        count = 0
        for j in range(2 * n):
            for rest in itertools.product(level_elements(lv),
                                          repeat=2 * n - 1 - j):
                full = (lv.zero,) * j + (lv.one,) + rest
                if pair_sum(full[:n], full[n:]) == lv.zero:
                    count += 1
        if kind == "Sprime":
            return count
        return _proj_space_count(N, 2 * n - 1) - count
    if kind == "Ytildeprime":
        if N ** (2 * n) > budget:
            raise BudgetExceededError("naive enumeration too large")
        count = 0
        for xs in itertools.product(level_elements(lv), repeat=n):
            for ys in itertools.product(level_elements(lv), repeat=n):
                if pair_sum(xs, ys) == lv.one:
                    count += 1
        return count
    raise ValueError(f"no naive enumerator for kind {kind!r}")
