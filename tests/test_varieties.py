"""Point counting: structured kernels against naive enumeration."""

import random
from collections import Counter

import pytest

from ffverify import (BudgetExceededError, VarietySpec, build_tower,
                      count_points, count_points_naive, varieties)
from ffverify.cli import main
from ffverify.fields import TowerContext

TOWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
          (13, 1), (2, 4)]


def test_variety_spec_validation():
    with pytest.raises(ValueError):
        VarietySpec("nope")
    with pytest.raises(ValueError):
        VarietySpec("Ytilde", 0)
    # the surface kinds ignore n, but still need n >= 1
    with pytest.raises(ValueError):
        VarietySpec("Xbar", 0)
    with pytest.raises(ValueError):
        VarietySpec("D", -5)


SMALL_LEVELS = [(p, e, level) for p, e in TOWERS for level in (1, 2, 4)
                if (p ** e) ** level <= 125]


@pytest.mark.parametrize("p,e,level", SMALL_LEVELS)
def test_character_sum_count_matches_a_counter_convolution(p, e, level):
    # every tower level of size <= 125, every target c, n <= 3 summands
    ctx = build_tower(p, e)
    N, d = ctx.levels[level].size, ctx.levels[level].degree
    # addition of encodings digit by digit, without the level's tables
    add = [[sum((a // p ** i + b // p ** i) % p * p ** i for i in range(d))
            for b in range(N)] for a in range(N)]
    rng = random.Random(f"{p},{e},{level}")
    dists = [[rng.randrange(4) for _ in range(N)] for _ in range(2)]
    dists[1][rng.randrange(N)] += 7
    ar = varieties._LevelArith(ctx, level, 10 ** 9, 10)
    spectra = [ar.spectrum(f) for f in dists]
    for n0, n1 in [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (0, 2)]:
        conv = Counter({0: 1})
        for f in [dists[0]] * n0 + [dists[1]] * n1:
            nxt = Counter()
            for a, ca in conv.items():
                for b, cb in enumerate(f):
                    nxt[add[a][b]] += ca * cb
            conv = nxt
        factors = [(spectra[0], n0), (spectra[1], n1)]
        assert [ar.count(factors, c) for c in range(N)] == \
            [conv[c] for c in range(N)]


def test_a_wrong_spectrum_slot_fails_the_character_sum_check(monkeypatch,
                                                             capsys):
    spectrum = varieties._LevelArith.spectrum

    def off_by_one(self, f):
        a = spectrum(self, f)
        a[1] += 1  # slot 0 of A_f(u) at u = 1
        return a

    monkeypatch.setattr(varieties._LevelArith, "spectrum", off_by_one)
    for p in (2, 3):
        with pytest.raises(ArithmeticError, match="character sum check"):
            count_points(build_tower(p, 1), VarietySpec("Ytilde", 1), 2)
    code = main(["count", "--p", "3", "--variety", "Ytilde", "--level", "2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("internal error: character sum check")


def test_a_returned_spectrum_cannot_poison_the_cache():
    ctx = TowerContext(3, 1)  # not the shared tower: its cache starts cold
    ar = varieties._LevelArith(ctx, 2, 10 ** 9, 3)  # the w of Ytilde_2
    f = ar.dist_hermitian()
    cold = ar.spectrum(f)
    for a in (cold, ar.spectrum(f)):  # from a miss, then from a hit
        a[1] += 1
        assert count_points(ctx, VarietySpec("Ytilde", 2), 2) == 3 ** 3 - 3
        a[1] -= 1
    spectra = ctx.table("spectra", dict)
    assert list(spectra[2, ar.w]) == [tuple(f)]  # the counts reused it
    assert ar.spectrum(f) == cold


@pytest.mark.parametrize("p,e", TOWERS)
@pytest.mark.parametrize("level", [2, 4])
def test_affine_hermitian_curve_has_q3_minus_q_points(p, e, level):
    """#Ytilde_2 = q^3 - q over F_{q^2} and over F_{q^4}.

    The Hermitian curve x^{q+1} + y^{q+1} = z^{q+1} has genus
    g = q(q-1)/2 and is F_{q^2}-maximal (Bose and Chakravarti, Canad. J.
    Math. 18, 1966): it has q^2 + 1 + 2gq = q^3 + 1 points there, so
    every eigenvalue of the q^2-Frobenius is -q.  Over F_{q^4} they
    become q^2, and the curve has q^4 + 1 - q(q-1)q^2 = q^3 + 1 points.
    At both levels q + 1 of them are at infinity, [x : y : 0] with
    (x/y)^{q+1} = -1, so the affine curve x^{q+1} + y^{q+1} = 1 has
    q^3 - q points.
    """
    q = p ** e
    assert count_points(build_tower(p, e), VarietySpec("Ytilde", 2),
                        level) == q ** 3 - q


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_norm_one_circle(p, e):
    ctx = build_tower(p, e)
    assert count_points(ctx, VarietySpec("Ytilde", 1), 2) == ctx.q + 1


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1)])
@pytest.mark.parametrize("kind", ["S", "Y", "Ytilde", "X"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermitian_counts_match_naive(p, e, kind, n):
    ctx = build_tower(p, e)
    for level in (1, 2):
        fast = count_points(ctx, VarietySpec(kind, n), level)
        slow = count_points_naive(ctx, VarietySpec(kind, n), level)
        assert fast == slow


@pytest.mark.parametrize("p,e", [(2, 2), (5, 1)])
@pytest.mark.parametrize("kind", ["S", "Y", "Ytilde", "X"])
@pytest.mark.parametrize("n", [1, 2])
def test_hermitian_counts_match_naive_at_q4_and_q5(p, e, kind, n):
    # with the q = 2, 3 cases above: every q <= 5, one of them a p = 2
    # field that is not prime
    test_hermitian_counts_match_naive(p, e, kind, n)


@pytest.mark.parametrize("p,e,n", [(2, 1, 1), (3, 1, 1), (2, 1, 2),
                                   (2, 2, 1), (5, 1, 1)])
def test_primed_affine_counts_match_naive(p, e, n):
    ctx = build_tower(p, e)
    for level in (1, 2):
        fast = count_points(ctx, VarietySpec("Ytildeprime", n), level)
        slow = count_points_naive(ctx, VarietySpec("Ytildeprime", n), level)
        assert fast == slow


def test_x1_over_f4():
    # z^q + z = x^{q+1} with q = 2 over F_4 has 8 points
    ctx = build_tower(2, 1)
    assert count_points(ctx, VarietySpec("X", 1), 2) == 8
    assert count_points_naive(ctx, VarietySpec("X", 1), 2) == 8


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_torsor_ratio_over_quadratic_level(p, e, n):
    ctx = build_tower(p, e)
    y = count_points(ctx, VarietySpec("Y", n), 2)
    yt = count_points(ctx, VarietySpec("Ytilde", n), 2)
    assert yt == (ctx.q + 1) * y


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1)])
def test_projective_decomposition(p, e):
    # P^{n-1} splits into the degree-(q+1) hypersurface and its complement
    ctx = build_tower(p, e)
    for n in (2, 3):
        for level in (1, 2, 4):
            N = ctx.levels[level].size
            total = sum(N ** k for k in range(n))
            s = count_points(ctx, VarietySpec("S", n), level)
            y = count_points(ctx, VarietySpec("Y", n), level)
            assert s + y == total


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_primed_fibration_partition(p, e):
    # A^{2n} is the disjoint union of the fibers of the pairing map
    ctx = build_tower(p, e)
    for n in (1, 2):
        for level in (1, 2):
            N = ctx.levels[level].size
            zp = count_points(ctx, VarietySpec("Zprime", n), level)
            zp0 = count_points(ctx, VarietySpec("Zprime0", n), level)
            up = count_points(ctx, VarietySpec("Uprime", n), level)
            assert zp0 == zp - 1
            assert zp + up == N ** (2 * n)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_xprime_fibers_over_artin_schreier_values(p, e):
    # z^q - z hits each trace-zero value q times, so X' has q * |fiber|
    # points over each value; totals must agree with the direct count
    ctx = build_tower(p, e)
    lv = ctx.levels[2]
    q = ctx.q
    for n in (1, 2) if lv.size <= 9 else (1,):
        direct = count_points(ctx, VarietySpec("Xprime", n), 2)
        # brute force: for each z, count tuples whose pairing sum equals
        # z^q - z (negated form), reusing the structured fiber counts
        import itertools
        brute = 0
        els = list(lv.elements())
        for z in els:
            target = lv.sub(lv.pow(z, q), z)
            for xs in itertools.product(els, repeat=n):
                for ys in itertools.product(els, repeat=n):
                    acc = lv.zero
                    for x, y in zip(xs, ys):
                        acc = lv.add(acc, lv.sub(lv.mul(x, lv.pow(y, q)),
                                                 lv.mul(lv.pow(x, q), y)))
                    if acc == target:
                        brute += 1
        assert direct == brute


def test_surface_and_boundary_counts():
    # the compactified surface minus its boundary is the affine chart
    ctx = build_tower(2, 1)
    for level in (1, 2):
        xb = count_points(ctx, VarietySpec("Xbar"), level)
        d = count_points(ctx, VarietySpec("D"), level)
        assert xb > d >= 0


def test_budget_guard():
    ctx = build_tower(3, 1)
    with pytest.raises(BudgetExceededError):
        count_points(ctx, VarietySpec("Ytilde", 3), 4, budget=10)
    with pytest.raises(BudgetExceededError):
        count_points_naive(ctx, VarietySpec("Ytilde", 3), 4, budget=10)


def test_budget_spent_is_pinned():
    """The budget a count spends is a fixed number: X' at n = 5 over F_9,
    whose count raises a spectrum to the fifth power, spends exactly 189
    units, so a budget of 188 raises."""
    ctx = build_tower(3, 1)
    assert count_points(ctx, VarietySpec("Xprime", 5), 2, budget=189) == \
        count_points(ctx, VarietySpec("Xprime", 5), 2)
    with pytest.raises(BudgetExceededError):
        count_points(ctx, VarietySpec("Xprime", 5), 2, budget=188)


def test_budget_spent_does_not_depend_on_the_cache(capsys):
    """The 189 units of test_budget_spent_is_pinned are spent whether
    the tower already holds the count's spectra or not."""
    spec = VarietySpec("Xprime", 5)
    expected = count_points(build_tower(3, 1), spec, 2)
    ctx = TowerContext(3, 1)
    assert count_points(ctx, spec, 2, budget=189) == expected  # cold
    assert ctx.table("spectra", dict)
    assert count_points(ctx, spec, 2, budget=189) == expected  # warm
    with pytest.raises(BudgetExceededError):
        count_points(ctx, spec, 2, budget=188)
    with pytest.raises(BudgetExceededError):
        count_points(TowerContext(3, 1), spec, 2, budget=188)
    count_points(build_tower(3, 1), VarietySpec("Ytilde", 3), 4)  # main's tower
    assert main(["count", "--p", "3", "--variety", "Ytilde", "--n", "3",
                 "--level", "4", "--budget", "10"]) == 2
    assert "budget" in capsys.readouterr().err

