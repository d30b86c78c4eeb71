"""Point counting: structured kernels against naive enumeration."""

import random
from collections import Counter
from math import gcd

import pytest

from ffverify import (BudgetExceededError, VarietySpec, build_tower,
                      count_points, varieties)
from ffverify.cli import main
from ffverify.fields import TowerContext, power
from reference import (count_points_naive, level_add, level_elements,
                       level_sub)

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


def spectrum_by_definition(ar, f):
    """The packed A_f(u) = sum_k f(k) x^Tr(uk) for every u, term by term:
    the trace from the p-th power map, the product from mul_enc."""
    lv, w = ar.level, ar.w
    frob = lv.power_map(lv.p)
    trace = []
    for k in range(lv.size):
        acc = 0
        for _ in range(lv.degree):
            acc, k = lv.add_enc(acc, k), frob[k]
        trace.append(acc)
    return [sum(m << w * trace[lv.mul_enc(u, k)] for k, m in enumerate(f))
            for u in range(lv.size)]


@pytest.mark.parametrize("p,e,level", SMALL_LEVELS + [(5, 1, 4)])
def test_structured_spectra_match_the_definition(p, e, level):
    """The coset route on the Hermitian and pair distributions and the
    linear route on both Artin-Schreier distributions give the spectrum
    of the definition.  Those two coset distributions are invariant
    under gamma^b -> gamma^-b, so the coset route is also run on random
    values F[b mod g], which are not."""
    ar = varieties._LevelArith(build_tower(p, e), level, 10 ** 9, 3)
    exp, _ = ar.level.log_tables()
    g = gcd(p ** e + 1, ar.N - 1)
    rng = random.Random(f"{p},{e},{level}")
    F = [rng.randrange(5) for _ in range(g)]
    on_cosets = [rng.randrange(5)] + [0] * (ar.N - 1)
    for b, k in enumerate(exp):
        on_cosets[k] = F[b % g]
    for f in (ar.dist_hermitian(), ar.dist_pair(), on_cosets):
        assert ar.coset_spectrum(f) == spectrum_by_definition(ar, f)
    for sign in (1, -1):
        f = ar.dist_artin_schreier(sign)
        assert ar.linear_spectrum(f, sign) == spectrum_by_definition(ar, f)


def test_each_route_rejects_a_distribution_without_its_structure():
    ctx = TowerContext(3, 1)  # not the shared tower: nothing is kept
    ar = varieties._LevelArith(ctx, 2, 10 ** 9, 3)
    exp, _ = ar.level.log_tables()
    f = ar.dist_hermitian()  # mass 4 on the fourth powers, g = 4
    f[exp[0]] -= 1  # one unit of mass moved off its coset
    f[exp[1]] += 1
    with pytest.raises(ArithmeticError, match="not constant on the cosets"):
        ar.coset_spectrum(f)
    for sign in (1, -1):
        f = ar.dist_artin_schreier(sign)
        f[0] -= 1  # f(L(0)) = f(0) falls short of |ker L|
        f[exp[1]] += 1
        with pytest.raises(ArithmeticError, match="is not [|]ker L[|]"):
            ar.linear_spectrum(f, sign)
    # the changed lists were copies: the kept distributions pass
    assert ar.coset_spectrum(ar.dist_hermitian())
    for sign in (1, -1):
        assert ar.linear_spectrum(ar.dist_artin_schreier(sign), sign)


def test_a_second_count_checks_its_kept_distribution(capsys):
    """The Hermitian distribution kept on the tower, corrupted after a
    first count: the next Ytilde count raises, as its spectrum checks
    the coset structure on every call, and the CLI exits 3."""
    message = "not constant on the cosets"
    build_tower.cache_clear()
    try:
        ctx = build_tower(3, 1)  # main's tower
        spec = VarietySpec("Ytilde", 2)
        assert count_points(ctx, spec, 2) == 3 ** 3 - 3
        kept_f = ctx.table(("dist hermitian", 2), list)
        exp, _ = ctx.levels[2].log_tables()
        kept_f[exp[0]] -= 1
        kept_f[exp[1]] += 1
        with pytest.raises(ArithmeticError, match=message):
            count_points(ctx, spec, 2)
        code = main(["count", "--p", "3", "--variety", "Ytilde", "--n", "2"])
    finally:
        build_tower.cache_clear()
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert message in captured.err


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
    spectra = [spectrum_by_definition(ar, f) for f in dists]
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


def test_a_count_takes_one_square_and_multiply_per_class(monkeypatch):
    """Ytilde_3 at q = 7 over F_{7^4}: the spectrum of x^8 takes 3
    values, on u = 0, on the eighth powers and on the other units, and
    Tr(u) takes 7; A(u) and Tr(u) fall into 15 classes (u = 0 is one),
    each raised to the third power in 3 products, where a product per u
    would make 3 * 2401.  The count is the semiprimitive closed form
    Q^2 + (q^3 - T) G^2 - T G^3 / Q with Q = q^4, G = -q^2 and
    T = (q^3 - q) / (q + 1) = 42."""
    calls = []

    def counted(mul, acc, a, n):
        calls.append(0)

        def tick(x, y):
            calls[-1] += 1
            return mul(x, y)
        return power(tick, acc, a, n)

    monkeypatch.setattr(varieties, "power", counted)
    q, T = 7, 42
    Q, G = q ** 4, -q ** 2
    assert count_points(build_tower(7, 1), VarietySpec("Ytilde", 3), 4) == \
        Q ** 2 + (q ** 3 - T) * G ** 2 - T * G ** 3 // Q
    assert calls == [3] * 15


def test_a_wrong_spectrum_slot_fails_the_character_sum_check(monkeypatch,
                                                             capsys):
    coset_spectrum = varieties._LevelArith.coset_spectrum

    def off_by_one(self, f):
        a = coset_spectrum(self, f)
        a[1] += 1  # slot 0 of A_f(u) at u = 1
        return a

    monkeypatch.setattr(varieties._LevelArith, "coset_spectrum", off_by_one)
    for p in (2, 3):
        with pytest.raises(ArithmeticError, match="character sum check"):
            count_points(build_tower(p, 1), VarietySpec("Ytilde", 1), 2)
    code = main(["count", "--p", "3", "--variety", "Ytilde", "--level", "2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("internal error: character sum check")


def test_a_returned_distribution_cannot_change_a_later_count(kept):
    """Each distribution a count draws from, changed by its caller
    after it is built and again after it is read from the tower: the
    next counts are unchanged.  Ytilde draws the Hermitian one, X' the
    pair one and the Artin-Schreier one of sign -1."""
    specs = [VarietySpec("Ytilde", 2), VarietySpec("Xprime", 2)]
    expected = [count_points(build_tower(3, 1), spec, 2) for spec in specs]
    ctx = TowerContext(3, 1)  # not the shared tower: its tables start cold
    ar = varieties._LevelArith(ctx, 2, 10 ** 9, 5)
    for _ in ("built", "kept"):
        for f in (ar.dist_hermitian(), ar.dist_pair(),
                  ar.dist_artin_schreier(-1)):
            f[1] += 1
        assert [count_points(ctx, spec, 2) for spec in specs] == expected
    assert all(kept(ctx, key) for key in (
        ("dist hermitian", 2), ("dist pair", 2), ("dist artin-schreier", 2, -1)))


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
@pytest.mark.parametrize("kind", ["Sprime", "Yprime"])
@pytest.mark.parametrize("n", [1, 2])
def test_primed_projective_counts_match_naive(p, e, kind, n):
    """S'_{2n} and Y'_{2n} from the affine cone against the leading
    coordinate enumeration of tests/reference.py."""
    ctx = build_tower(p, e)
    for level in (1, 2):
        assert count_points(ctx, VarietySpec(kind, n), level) == \
            count_points_naive(ctx, VarietySpec(kind, n), level)


@pytest.mark.parametrize("p,e", TOWERS)
def test_xbar_is_sprime_4(p, e):
    """With (x1, y1) = (Z3, Z2) and (x2, y2) = (Z1, Z0) the surface
    equation Z2^q Z3 - Z2 Z3^q = Z0 Z1^q - Z0^q Z1 is the S'_4 equation,
    so Xbar, a chart and its boundary, counts what the cone of S'_4
    counts."""
    ctx = build_tower(p, e)
    for level in (1, 2, 4) if p ** e <= 5 else (1, 2):
        assert count_points(ctx, VarietySpec("Xbar"), level) == \
            count_points(ctx, VarietySpec("Sprime", 2), level)


def test_a_wrong_cone_count_fails_the_cone_check(monkeypatch, capsys):
    """One zero more on the cone of S_2 over F_9 is not 1 plus a
    multiple of N - 1 = 8: the count raises, and the command exits 3
    with nothing on stdout."""
    count = varieties._LevelArith.count
    monkeypatch.setattr(varieties._LevelArith, "count",
                        lambda self, factors, c=0: count(self, factors, c) + 1)
    with pytest.raises(ArithmeticError, match="cone check"):
        count_points(build_tower(3, 1), VarietySpec("S", 2), 2)
    code = main(["count", "--p", "3", "--variety", "S", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("internal error: cone check")


@pytest.mark.parametrize("kind", ["S", "Y", "Sprime", "Yprime"])
def test_a_projective_count_is_one_count_of_its_cone(monkeypatch, kind):
    """Each projective kind makes one character sum, over its whole
    cone, and the primed ones take no Artin-Schreier spectrum."""
    calls = []
    count = varieties._LevelArith.count
    linear_spectrum = varieties._LevelArith.linear_spectrum

    def counted(self, factors, c=0):
        calls.append(("count", [n for _, n in factors], c))
        return count(self, factors, c)

    def linear(self, f, sign):
        calls.append(("linear_spectrum", sign))
        return linear_spectrum(self, f, sign)

    monkeypatch.setattr(varieties._LevelArith, "count", counted)
    monkeypatch.setattr(varieties._LevelArith, "linear_spectrum", linear)
    count_points(build_tower(3, 1), VarietySpec(kind, 3), 2)
    assert calls == [("count", [3], 0)]


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
        els = list(level_elements(lv))
        for z in els:
            target = level_sub(lv, lv.pow(z, q), z)
            for xs in itertools.product(els, repeat=n):
                for ys in itertools.product(els, repeat=n):
                    acc = lv.zero
                    for x, y in zip(xs, ys):
                        acc = level_add(lv, acc, level_sub(
                            lv, lv.mul(x, lv.pow(y, q)),
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


@pytest.mark.parametrize("kind,spent", [("S", 108), ("Sprime", 117)])
def test_cone_budget_spent_is_pinned(kind, spent):
    """S_5 and S'_10 over F_9 are one count each, of exponent 5 (36
    units), after a distribution and a spectrum: N = 9 to start, the
    Hermitian distribution 9, or the pair distribution 18, and the
    spectrum N d p = 54."""
    ctx = build_tower(3, 1)
    spec = VarietySpec(kind, 5)
    assert count_points(ctx, spec, 2, budget=spent) == \
        count_points(ctx, spec, 2)
    with pytest.raises(BudgetExceededError):
        count_points(ctx, spec, 2, budget=spent - 1)


def test_budget_spent_does_not_depend_on_the_cache(capsys, kept):
    """The 189 units of test_budget_spent_is_pinned are spent whether
    the tower already holds the count's distributions or not."""
    spec = VarietySpec("Xprime", 5)
    expected = count_points(build_tower(3, 1), spec, 2)
    ctx = TowerContext(3, 1)
    assert not kept(ctx, ("dist pair", 2))
    assert count_points(ctx, spec, 2, budget=189) == expected  # cold
    assert kept(ctx, ("dist pair", 2))
    assert kept(ctx, ("dist artin-schreier", 2, -1))
    assert count_points(ctx, spec, 2, budget=189) == expected  # warm
    with pytest.raises(BudgetExceededError):
        count_points(ctx, spec, 2, budget=188)
    with pytest.raises(BudgetExceededError):
        count_points(TowerContext(3, 1), spec, 2, budget=188)
    count_points(build_tower(3, 1), VarietySpec("Ytilde", 3), 4)  # main's tower
    assert main(["count", "--p", "3", "--variety", "Ytilde", "--n", "3",
                 "--level", "4", "--budget", "10"]) == 2
    assert "budget" in capsys.readouterr().err

