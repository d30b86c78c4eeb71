"""Surface fixed points: structured solver, closed forms, blind scan."""

import re

import pytest

from ffverify import fields, fixed_points
from ffverify.cli import main
from ffverify import (FieldError, blind_fixed_point_count,
                      build_tower, closed_form_fixed_count,
                      differential_vanishes, fixed_point_grid,
                      fixed_points_surface)
from ffverify.fixed_points import (BLIND_MAX_FIELD_SIZE, _projectively_equal,
                                   coordinate_extension)


def test_report_is_internally_consistent():
    ctx = build_tower(3, 1)
    for with_u in (True, False):
        for zeta in ctx.enumerate_mu():
            for eta in range(ctx.q):
                rep = fixed_points_surface(ctx, eta, zeta, with_u)
                assert rep.total == sum(rep.sigma_counts.values())
                assert rep.total == len(rep.points)


def test_every_point_satisfies_all_equations():
    """Each reported point, substituted by a route of the test's own:
    q-th powers by square and multiply, the map with eta written out,
    and fixedness as the six 2x2 minors."""
    ctx = build_tower(3, 1)
    K = coordinate_extension(ctx)
    q = ctx.q

    def fq(a):
        return K.pow(a, q)

    for with_u in (True, False):
        for zeta in ctx.enumerate_mu():
            for eta in range(ctx.q):
                ek = ctx.embed(eta)
                rep = fixed_points_surface(ctx, eta, zeta, with_u)
                for z0, z1, z2, z3 in rep.points:
                    assert (K.sub(K.mul(fq(z2), z3), K.mul(z2, fq(z3)))
                            == K.sub(K.mul(z0, fq(z1)), K.mul(fq(z0), z1)))
                    image = (fq(K.add(z0, z1) if with_u else z0), fq(z1),
                             K.mul(zeta, fq(K.add(z2, K.mul(ek, z3)))),
                             K.mul(zeta, fq(z3)))
                    assert _six_minors_vanish(K, (z0, z1, z2, z3), image)


def test_one_reduction_per_map_and_a_fresh_solver_cache_per_tower(monkeypatch,
                                                                  kept):
    """Both grids at q = 5 row-reduce one map, x -> x^q - x, once, for
    the root of c^q - c = 1 that every particular solution is built
    from, and keep the root on the tower; a tower built after
    cache_clear starts with no kept root."""
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
    assert calls == 1 and kept(ctx, "root")
    build_tower.cache_clear()
    fresh = build_tower(5, 1)
    assert fresh is not ctx
    assert not kept(fresh, "root")


def test_a_wrong_root_is_an_internal_error(capsys):
    """c + t, planted as the tower's root before the grid runs: t lies
    outside F_{q^2}, so d = (c + t)^q - (c + t) = 1 + t^q - t is not 1.
    In a twisted cell with eta != 0 and a nonempty chart, x = -(c + t) y
    and z = -eta (c + t) give x y^q - x^q y = -eta d = z^q - z, on the
    surface, but z^q - z is not -eta: the point is not fixed."""
    message = "reported point is not fixed (sigma1)"

    def planted():
        ctx = build_tower(3, 1)
        K = coordinate_extension(ctx)
        wrong = K.add(K.solve_affine(1), K.base.size)
        assert ctx.table("root", lambda: wrong) == wrong
        return ctx

    build_tower.cache_clear()
    ctx = planted()
    minus_one = ctx.levels[1].neg_enc(1)
    zeta = next(z for z in ctx.enumerate_mu()
                if ctx.nu(z) * ctx.legendre(minus_one) == 1)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        fixed_points_surface(ctx, 1, zeta, True)
    build_tower.cache_clear()
    planted()
    assert main(["fixed-points", "--p", "3"]) == 3
    assert capsys.readouterr() == ("", f"internal error: {message}\n")
    build_tower.cache_clear()


def _shifted_by_t(at_one):
    """_x_solutions, with t (the encoding N = q^2) added to each solution
    it returns at zeta = 1 (the z of every cell, and the x of zeta = 1)
    if at_one, and at zeta != 1 (the x of the other cells) if not: t
    lies outside F_{q^2}, so t^q - zeta t is not 0, and every shifted
    solution is wrong."""
    real = fixed_points._x_solutions

    def planted(ctx, K, zeta, y):
        sols = real(ctx, K, zeta, y)
        if (zeta == 1) != at_one:
            return sols
        return [K.add(a, K.base.size) for a in sols]
    return planted


def _with_point(P):
    """_boundary_strata with P added to its first stratum."""
    real = fixed_points._boundary_strata

    def planted(ctx, K, zeta, with_u):
        strata = real(ctx, K, zeta, with_u)
        name = next(iter(strata))
        return {**strata, name: strata[name] + [P(K)]}
    return planted


@pytest.mark.parametrize("helper,plant,zeta_at,message", [
    ("_x_solutions", _shifted_by_t(True), 0,
     "reported point violates the surface equation (sigma1)"),
    ("_x_solutions", _shifted_by_t(False), 1,
     "reported point is not fixed (sigma1)"),
    ("_boundary_strata", _with_point(lambda K: (K.base.size, 0, 1, 0)), 0,
     "reported point is not fixed (sigma2)"),
    ("_boundary_strata", _with_point(lambda K: (K.base.size, 1, 0, 0)), 0,
     "reported point violates the surface equation (sigma2)"),
    ("_boundary_strata", _with_point(lambda K: (0, 0, 0, 1)), 0,
     "boundary point off Z3 = 0 (sigma2)"),
], ids=["surface", "fixed", "boundary", "boundary-surface",
        "boundary-off-z3"])
def test_a_point_that_fails_its_check_is_an_internal_error(
        monkeypatch, capsys, helper, plant, zeta_at, message):
    """A wrong point, planted where the solver builds it, is caught by
    the check of its own stratum in the cell (0, zeta), zeta the
    zeta_at-th element of mu_{q+1} (1 first): a wrong chart z (its
    z^q - z is not -eta) fails the surface equation, a wrong x (x^q -
    zeta x is not -zeta y, here at zeta != 1 so that z stays right)
    fails fixedness; on the boundary [t : 0 : 1 : 0] fails
    fixedness and [t : 1 : 0 : 0] the surface equation (t^q != t), and
    [0 : 0 : 0 : 1], a fixed point of the eta = 0 cells alone, is
    refused from the points that every eta shares.  It is a fault of
    the program, not of its input: ArithmeticError, and exit 3."""
    build_tower.cache_clear()  # a kept grid or stratum would skip the checks
    monkeypatch.setattr(fixed_points, helper, plant)
    ctx = build_tower(3, 1)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        fixed_points_surface(ctx, 0, ctx.enumerate_mu()[zeta_at], True)
    build_tower.cache_clear()
    assert main(["fixed-points", "--p", "3"]) == 3
    assert capsys.readouterr() == ("", f"internal error: {message}\n")
    build_tower.cache_clear()


def test_a_chart_point_of_another_cell_fails_its_z_condition():
    """The chart points of the untwisted cell (0, zeta), checked against
    the map of eta = 1: each lies on the surface and its pair is fixed,
    but zeta (z + 1)^q != zeta z, so the z condition alone refuses it."""
    ctx = build_tower(3, 1)
    K = coordinate_extension(ctx)
    zeta, one = ctx.enumerate_mu()[0], ctx.embed(1)
    pairs = [(x, y) for x in K.coset(zeta) for y in K.coset(zeta)]
    z_sides = [(z, lz, K.frob(K.add(z, one)))
               for z, lz, _ in fixed_points._z_sides(ctx, K, 0)]
    with pytest.raises(ArithmeticError,
                       match=re.escape("reported point is not fixed (sigma1)")):
        fixed_points._chart(K, zeta, False, pairs, z_sides)


def test_the_grid_multiplies_once_per_factor(monkeypatch):
    """Both grids at q = 5 take each product in K once per factor of a
    chart stratum and once per boundary point and zeta, not once per
    reported point: the 2610 points cost 34050 products when each was
    substituted on its own, about 13 a point, and now stay under 2."""
    build_tower.cache_clear()
    ctx = build_tower(5, 1)
    K = coordinate_extension(ctx)
    calls = 0
    mul = K.mul

    def counting(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(K, "mul", counting)
    points = sum(cell.total for with_u in (True, False)
                 for cell in fixed_point_grid(ctx, with_u).values()
                 if cell.matches)
    assert points == 2610
    assert 0 < calls < 2 * points
    build_tower.cache_clear()


def test_untwisted_pair_values_once_per_zeta(monkeypatch, kept):
    """The untwisted grid at q = 5 takes no value x y^q - x^q y ahead of
    its chart check: for x, y in coset(zeta) it is 0, so the pairs of a
    cell are all of coset(zeta)^2 at eta = 0 and none elsewhere.  Its
    only level-2 products build each coset, q^2 per zeta: (q + 1) q^2 =
    150 in all, where the values alone would take 2 a pair, 2 (q + 1) q^2
    = 300 more."""
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
    grid = fixed_point_grid(ctx, False)
    assert all(cell.matches for cell in grid.values())
    assert 0 < calls <= (q + 1) * q ** 2
    for (eta, zeta), cell in grid.items():
        assert kept(ctx, ("coset", zeta))
        assert cell.sigma_counts["sigma1"] == (q ** 3 if eta == 0 else 0)
    build_tower.cache_clear()


def test_no_duplicate_points():
    ctx = build_tower(3, 1)
    K = coordinate_extension(ctx)
    for with_u in (True, False):
        for zeta in ctx.enumerate_mu():
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
        for zeta in ctx.enumerate_mu():
            for eta in range(ctx.q):
                rep = fixed_points_surface(ctx, eta, zeta, with_u)
                assert rep.total == closed_form_fixed_count(ctx, eta, zeta, with_u)


def test_stratum_emptiness_pattern():
    # the big affine stratum is empty exactly when the solvability sign
    # is negative (twisted case) or eta is nonzero (untwisted case)
    ctx = build_tower(3, 1)
    for zeta in ctx.enumerate_mu():
        for eta in range(1, ctx.q):
            rep = fixed_points_surface(ctx, eta, zeta, True)
            s1 = rep.sigma_counts.get("sigma1", 0)
            minus_eta = ctx.levels[1].neg_enc(eta)
            solvable = ctx.nu(zeta) * ctx.legendre(minus_eta) == 1
            assert (s1 > 0) == solvable


def test_closed_form_values():
    ctx = build_tower(3, 1)
    q = 3
    totals = set()
    for zeta in ctx.enumerate_mu():
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
        for zeta in ctx.enumerate_mu():
            for eta in range(ctx.q):
                blind = blind_fixed_point_count(ctx, eta, zeta, with_u)
                rep = fixed_points_surface(ctx, eta, zeta, with_u)
                assert blind == rep.total
                checked += 1
    assert checked == cells


@pytest.mark.parametrize("with_u,eta,total", [(True, 1, 73), (False, 0, 585)])
def test_blind_scan_at_its_largest_field(with_u, eta, total):
    """q = 8, the largest q whose F_{q^{2p}} the blind scan admits
    (2^12 = BLIND_MAX_FIELD_SIZE elements): one cell of each variant
    against the structured solver."""
    ctx = build_tower(2, 3)
    assert ctx.p ** (2 * ctx.e * ctx.p) == BLIND_MAX_FIELD_SIZE
    zeta = ctx.enumerate_mu()[1]
    rep = fixed_points_surface(ctx, eta, zeta, with_u)
    assert blind_fixed_point_count(ctx, eta, zeta, with_u) == rep.total == total


def test_blind_scan_budget():
    from ffverify import BudgetExceededError
    ctx = build_tower(7, 1)
    zeta = ctx.enumerate_mu()[0]
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
    # no P is 0: every quadruple the solver builds has a coordinate 1
    points = [(1, a, b, c), (0, a, 0, c), (0, 0, b, 0), (a, 0, 0, 0)]
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
