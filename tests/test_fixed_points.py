"""Surface fixed points: structured solver, closed forms, blind scan."""

import pytest

from ffverify import fields, fixed_points
from ffverify.cli import main
from ffverify import (FieldError, blind_fixed_point_count,
                      build_tower, closed_form_fixed_count,
                      differential_vanishes, fixed_point_grid,
                      fixed_points_surface, nu_sign)
from ffverify.fixed_points import (_apply_endo, _projectively_equal,
                                   _surface_holds, coordinate_extension)


def test_report_is_internally_consistent():
    ctx = build_tower(3, 1)
    for with_u in (True, False):
        for zeta in ctx.enumerate_mu(4):
            for eta in range(ctx.q):
                rep = fixed_points_surface(ctx, eta, zeta, with_u)
                assert rep.total == sum(rep.sigma_counts.values())
                assert rep.total == len(rep.points)
                assert rep.field_degree == 2 * ctx.e * ctx.p


class _PowQ:
    """a^q by square and multiply, in the place of the frob memo."""

    def __init__(self, K):
        self.K = K

    def __getitem__(self, a):
        return self.K.pow(a, self.K.tower.q)


def test_every_point_satisfies_all_equations():
    ctx = build_tower(3, 1)
    K = coordinate_extension(ctx)
    frob = _PowQ(K)
    for with_u in (True, False):
        for zeta in ctx.enumerate_mu(4):
            for eta in range(ctx.q):
                ek = ctx.embed(eta)
                rep = fixed_points_surface(ctx, eta, zeta, with_u)
                for P in rep.points:
                    assert _surface_holds(K, frob, P)
                    Q = _apply_endo(K, frob, zeta, ek, with_u, P)
                    assert _projectively_equal(K, P, Q)


def test_one_reduction_per_map_and_a_fresh_solver_cache_per_tower(monkeypatch,
                                                                  kept):
    """Both grids at q = 5 row-reduce each map x -> x^q - zeta x once,
    at most q + 1 reductions, each kept on the tower; a tower built
    after cache_clear starts with no kept reduction."""
    build_tower.cache_clear()
    ctx = build_tower(5, 1)
    calls = 0
    row_reduce = fields.row_reduce

    def counting(*args):
        nonlocal calls
        calls += 1
        return row_reduce(*args)

    monkeypatch.setattr(fields, "row_reduce", counting)
    for with_u in (True, False):
        assert all(cell.matches for cell in fixed_point_grid(ctx, with_u).values())
    assert 0 < calls <= ctx.q + 1
    mu = ctx.enumerate_mu(ctx.q + 1)
    assert sum(kept(ctx, ("reduction", zeta)) for zeta in mu) == calls
    build_tower.cache_clear()
    fresh = build_tower(5, 1)
    assert fresh is not ctx
    assert not any(kept(fresh, ("reduction", zeta)) for zeta in mu)


@pytest.mark.parametrize("check,message", [
    ("_surface_holds", "reported point violates the surface equation (sigma1)"),
    ("_projectively_equal", "reported point is not fixed (sigma1)"),
], ids=["surface", "fixed"])
def test_a_point_that_fails_its_check_is_an_internal_error(
        monkeypatch, capsys, check, message):
    """A reported point that fails its re-verification is a fault of the
    program, not of its input: ArithmeticError, and exit 3."""
    build_tower.cache_clear()  # a kept grid would skip the checks
    monkeypatch.setattr(fixed_points, check, lambda *args: False)
    with pytest.raises(ArithmeticError, match="reported point"):
        fixed_points_surface(build_tower(3, 1), 0, 1, True)
    assert main(["fixed-points", "--p", "3"]) == 3
    assert capsys.readouterr() == ("", f"internal error: {message}\n")
    build_tower.cache_clear()


def test_untwisted_pair_values_once_per_zeta(monkeypatch, kept):
    """The untwisted grid at q = 5 takes x y^q - x^q y once per pair of
    each coset, not once per pair in every eta cell.  Each value costs
    two level-2 products, so per cell that is at least 2 (q + 1) q^3 =
    1500 products (2467 in all before the grouping); per zeta it is
    2 (q + 1) q^2 = 300, and the grid stays under (q + 1) q^3 = 750."""
    build_tower.cache_clear()
    ctx = build_tower(5, 1)
    lv2, q = ctx.levels[2], ctx.q
    calls = 0
    mul_enc = lv2.mul_enc

    def counting(i, j):
        nonlocal calls
        calls += 1
        return mul_enc(i, j)

    monkeypatch.setattr(lv2, "mul_enc", counting)
    assert all(cell.matches for cell in fixed_point_grid(ctx, False).values())
    assert 0 < calls < (q + 1) * q ** 3
    K = coordinate_extension(ctx)
    for zeta in ctx.enumerate_mu(q + 1):
        assert kept(ctx, ("coset pairs", zeta))
        groups = K.coset_pairs(zeta)
        pairs = [(x, y) for x, _ in K.coset(zeta) for y, _ in K.coset(zeta)]
        assert sorted(p for ps in groups.values() for p in ps) == pairs
        assert all(ps == sorted(ps) for ps in groups.values())
    build_tower.cache_clear()


def test_no_duplicate_points():
    ctx = build_tower(3, 1)
    K = coordinate_extension(ctx)
    for with_u in (True, False):
        for zeta in ctx.enumerate_mu(4):
            for eta in range(ctx.q):
                rep = fixed_points_surface(ctx, eta, zeta, with_u)
                for i, P in enumerate(rep.points):
                    for Q in rep.points[i + 1:]:
                        assert not _projectively_equal(K, P, Q)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_grid_matches_closed_form(p, e):
    ctx = build_tower(p, e)
    q = ctx.q
    for with_u in (True, False):
        for zeta in ctx.enumerate_mu(q + 1):
            for eta in range(ctx.q):
                rep = fixed_points_surface(ctx, eta, zeta, with_u)
                assert rep.total == closed_form_fixed_count(ctx, eta, zeta, with_u)


def test_stratum_emptiness_pattern():
    # the big affine stratum is empty exactly when the solvability sign
    # is negative (twisted case) or eta is nonzero (untwisted case)
    ctx = build_tower(3, 1)
    for zeta in ctx.enumerate_mu(4):
        for eta in range(1, ctx.q):
            rep = fixed_points_surface(ctx, eta, zeta, True)
            s1 = rep.sigma_counts.get("sigma1", 0)
            minus_eta = ctx.levels[1].neg_enc(eta)
            solvable = nu_sign(ctx, zeta) * ctx.legendre(minus_eta) == 1
            assert (s1 > 0) == solvable


def test_closed_form_values():
    ctx = build_tower(3, 1)
    q = 3
    totals = set()
    for zeta in ctx.enumerate_mu(4):
        for eta in range(q):
            totals.add(closed_form_fixed_count(ctx, eta, zeta, True))
            totals.add(closed_form_fixed_count(ctx, eta, zeta, False))
    assert totals == {2 * q * q + q + 1, q + 1, q * q + q + 1,
                      (q + 1) * (q * q + 1)}


@pytest.mark.parametrize("e", [1, 2, 3])
def test_every_grid_cell_matches_its_closed_form_at_p2(e):
    """q = 2, 4, 8: with the twist and eta != 0 every cell has
    sigma1 = q^2 and sigma2 = q + 1 points, the closed form q^2+q+1."""
    ctx = build_tower(2, e)
    q = ctx.q
    for with_u in (True, False):
        grid = fixed_point_grid(ctx, with_u)
        assert len(grid) == q * (q + 1)
        for (eta, zeta), cell in grid.items():
            assert cell.closed_form == closed_form_fixed_count(ctx, eta, zeta, with_u)
            assert cell.matches and cell.total == cell.closed_form
            if with_u and eta:
                assert cell.sigma_counts == {"sigma1": q * q, "sigma2": q + 1}


def test_zeta_outside_mu_is_rejected():
    ctx = build_tower(3, 1)
    fourth = ctx.levels[2].power_map(4)
    outside = [k for k in range(ctx.levels[2].size) if fourth[k] != 1]
    assert 4 in outside and len(outside) == 9 - 4
    for count in (fixed_points_surface, closed_form_fixed_count,
                  blind_fixed_point_count):
        for zeta in outside:
            for eta in range(ctx.q):
                for with_u in (True, False):
                    with pytest.raises(FieldError):
                        count(ctx, eta, zeta, with_u)


@pytest.mark.parametrize("p,e,cells", [(3, 1, 24), (2, 1, 12), (2, 2, 40)])
def test_blind_scan_agrees_with_structured_solver(p, e, cells):
    ctx = build_tower(p, e)
    checked = 0
    for with_u in (True, False):
        for zeta in ctx.enumerate_mu(ctx.q + 1):
            for eta in range(ctx.q):
                blind = blind_fixed_point_count(ctx, eta, zeta, with_u)
                rep = fixed_points_surface(ctx, eta, zeta, with_u)
                assert blind == rep.total
                checked += 1
    assert checked == cells


def test_blind_scan_budget():
    from ffverify import BudgetExceededError
    ctx = build_tower(7, 1)
    zeta = ctx.enumerate_mu(8)[0]
    with pytest.raises(BudgetExceededError):
        blind_fixed_point_count(ctx, 1, zeta, True)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2),
                                 (3, 2)])
def test_differential_of_displacement_is_invertible(p, e):
    assert differential_vanishes(build_tower(p, e))


def test_differential_condition_is_computed_not_assumed():
    """At q = 4 and p = 3, which no tower has, the partial of y^q is
    q y^(q-1) = y^3, not 0 mod 3: the condition reads p and q."""
    class StandIn:
        p, q = 3, 4
    assert not differential_vanishes(StandIn())


def _six_minors_vanish(K, P, Q):
    """The definition: every 2x2 minor of (P; Q) is zero."""
    return all(K.sub(K.mul(P[i], Q[j]), K.mul(P[j], Q[i])) == 0
               for i in range(4) for j in range(i + 1, 4))


def test_projective_equality_matches_the_six_minors():
    ctx = build_tower(3, 1)
    K = coordinate_extension(ctx)
    t = K.base.size  # the encoding of t; encodings below it are F_{q^2}
    a = 5
    b = K.add(t, 1)
    c = K.mul(t, t)
    lam = K.add(t, a)
    points = [(1, a, b, c), (0, a, 0, c), (0, 0, b, 0), (a, 0, 0, 0), (0,) * 4]
    pairs = []
    for P in points:
        pairs.append((P, P))
        pairs.append((P, tuple(K.mul(lam, x) for x in P)))      # scalar multiple
        pairs.append((P, tuple(K.mul(0, x) for x in P)))       # Q = 0
        for k in range(4):                                      # break one entry
            Q = list(P)
            Q[k] = K.add(Q[k], 1)
            pairs.append((P, tuple(Q)))
        for R in points:
            pairs.append((P, R))
    outcomes = set()
    for P, Q in pairs:
        expected = _six_minors_vanish(K, P, Q)
        assert _projectively_equal(K, P, Q) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}
