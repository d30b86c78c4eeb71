"""Fixed points of twisted endomorphisms of the quadric-like surface.

The surface lives in P^3 with equation Z2^q Z3 - Z2 Z3^q = Z0 Z1^q - Z0^q Z1.
Two q-power endomorphisms f_{eta,zeta} are considered, indexed by eta in
F_q and zeta in mu_{q+1}:

  with unipotent part:    [Z0:Z1:Z2:Z3] -> [(Z0+Z1)^q : Z1^q : zeta (Z2 + eta Z3)^q : zeta Z3^q]
  without unipotent part: [Z0:Z1:Z2:Z3] -> [Z0^q : Z1^q : zeta (Z2 + eta Z3)^q : zeta Z3^q]

Fixed points in the affine chart Z3 = 1 satisfy x^{q^2} = x - 2y (with
the unipotent part), hence x^{q^{2p}} = x: their coordinates live in
K = F_{q^{2p}}, realized here as the Artin-Schreier extension of F_{q^2}.
The solver enumerates the defining equation systems.  The solutions of
each affine equation x^q - zeta x = r are one particular solution plus
the kernel, the coset {a in F_{q^2} : a^q = zeta a}.  Every particular
solution is a closed form in one root c of c^q - c = 1, found once per
tower (see _x_solutions).

What is checked: every reported point satisfies the surface equation
and is fixed, each decided by an exact comparison of its two sides, but
each side is computed once per factor, not once per point.  A chart
stratum is a product: pairs (Z0, Z1) times values Z2, with Z3 = 1.
There the surface equation reads L(Z2) = R(Z0, Z1), with L(z) = z^q - z
and R = Z0 Z1^q - Z0^q Z1.  The image has last coordinate zeta, so with
the pivot Z3 = 1 the point is fixed when the image's first three
coordinates are zeta Z0, zeta Z1 and zeta Z2: the first two read (Z0, Z1)
alone and the third, zeta (Z2 + eta)^q, reads Z2 alone.  On Z3 = 0 the
map does not read eta, which only multiplies Z3: the boundary strata and
their images are the same in the q cells of one zeta, so each boundary
point is checked once per (zeta, variant), through all 2x2 minors.
"""

from __future__ import annotations

from collections import defaultdict
from math import comb
from typing import NamedTuple

from .fields import (ArtinSchreierExtension, BudgetExceededError, Level,
                     TowerContext, embedding_table)


class FixedPointReport(NamedTuple):
    total: int
    sigma_counts: dict
    points: list  # projective quadruples of Artin-Schreier encodings


class GridCell(NamedTuple):
    """One (eta, zeta) cell of the fixed point grid, without its points."""
    total: int
    sigma_counts: dict
    closed_form: int

    @property
    def matches(self) -> bool:
        return self.total == self.closed_form


def coordinate_extension(ctx: TowerContext) -> ArtinSchreierExtension:
    return ctx.table("K", lambda: ArtinSchreierExtension(ctx))


def _root(ctx: TowerContext, K: ArtinSchreierExtension) -> int:
    """A c in K with c^q - c = 1, kept on the tower.  It exists by the
    additive form of Hilbert 90: x -> x^q - x maps K onto the kernel of
    Tr_{K/F_q}, and Tr_{K/F_q}(1) = [K : F_q] = 2p = 0."""
    return ctx.table("root", lambda: K.solve_affine(1))


def _x_solutions(ctx: TowerContext, K: ArtinSchreierExtension, zeta: int,
                 y: int):
    """The x in K with x^q - zeta x = -zeta y, for y^q = zeta y: x0 + a
    for a in coset(zeta), with x0 = -c y, since
    (-c y)^q + zeta c y = -c^q zeta y + zeta c y = -zeta y (c^q - c).
    At zeta = 1 and y = eta in F_q, eta^q = eta, these are the z in K
    with z^q - z = -eta."""
    x0 = K.neg(K.mul(_root(ctx, K), y))
    return [K.add(x0, a) for a in K.coset(zeta)]


def _z_sides(ctx: TowerContext, K: ArtinSchreierExtension, eta2: int):
    """[(z, z^q - z, (z + eta)^q)] for each z in K with z^q - z = -eta,
    kept on the tower per eta: none of it reads zeta."""
    return ctx.table(("z sides", eta2), lambda: [
        (z, K.sub(K.frob(z), z), K.frob(K.add(z, eta2)))
        for z in _x_solutions(ctx, K, 1, eta2)])


def _chart(K: ArtinSchreierExtension, zeta: int, with_u: bool, pairs,
           z_sides):
    """The points (x, y, z, 1) for (x, y) in pairs and z in z_sides, each
    checked: R(x, y) = L(z), (x + y)^q (x^q untwisted) = zeta x,
    y^q = zeta y and zeta (z + eta)^q = zeta z, with R and the first two
    flags computed once per pair and L and the last once per z."""
    frob, mul = K.frob, K.mul
    pair_sides = []
    for x, y in pairs:
        fx, fy = frob(x), frob(y)
        w0 = frob(K.add(x, y)) if with_u else fx
        pair_sides.append((x, y, K.sub(mul(x, fy), mul(fx, y)),
                           w0 == mul(zeta, x) and fy == mul(zeta, y)))
    z_fixed = [(z, lz, mul(zeta, w2) == mul(zeta, z)) for z, lz, w2 in z_sides]
    points = []
    for x, y, r, xy_fixed in pair_sides:
        for z, lz, fixed in z_fixed:
            if lz != r:
                raise ArithmeticError(
                    "reported point violates the surface equation (sigma1)")
            if not (xy_fixed and fixed):
                raise ArithmeticError("reported point is not fixed (sigma1)")
            points.append((x, y, z, 1))
    return points


def _boundary_strata(ctx: TowerContext, K: ArtinSchreierExtension, zeta: int,
                     with_u: bool) -> dict:
    """{name: points} of the strata on Z3 = 0, unchecked."""
    coset = K.coset(zeta)
    if with_u:
        # Stratum 2: [z : 0 : 1 : 0] with z^q = zeta z, and [1 : 0 : 0 : 0].
        return {"sigma2": [(z, 0, 1, 0) for z in coset] + [(1, 0, 0, 0)]}
    # Stratum 2: [x : y : 1 : 0] with x, y in the same coset.
    # Stratum 3: the rational line [Z0 : Z1 : 0 : 0] over F_q.
    return {"sigma2": [(x, y, 1, 0) for x in coset for y in coset],
            "sigma3": ([(1, ctx.embed(a), 0, 0) for a in range(ctx.q)]
                       + [(0, 1, 0, 0)])}


def _boundary(ctx: TowerContext, K: ArtinSchreierExtension, zeta: int,
              with_u: bool) -> dict:
    """_boundary_strata with every point checked, kept on the tower per
    (zeta, variant).  A point off Z3 = 0 is refused, since only there do
    the image, [w0 : Z1^q : zeta Z2^q : 0] with w0 = (Z0 + Z1)^q (Z0^q
    untwisted), and the surface equation, whose left side vanishes,
    leave eta out."""
    def build():
        strata = _boundary_strata(ctx, K, zeta, with_u)
        frob, mul = K.frob, K.mul
        for name, pts in strata.items():
            for P in pts:
                z0, z1, z2, z3 = P
                if z3 != 0:
                    raise ArithmeticError(
                        f"boundary point off Z3 = 0 ({name})")
                f0, f1 = frob(z0), frob(z1)
                if mul(z0, f1) != mul(f0, z1):
                    raise ArithmeticError(
                        f"reported point violates the surface equation ({name})")
                image = (frob(K.add(z0, z1)) if with_u else f0, f1,
                         mul(zeta, frob(z2)), 0)
                if not _projectively_equal(K, P, image):
                    raise ArithmeticError(
                        f"reported point is not fixed ({name})")
        return strata
    return ctx.table(("boundary", zeta, with_u), build)


def _projectively_equal(K: ArtinSchreierExtension, P, Q) -> bool:
    """All 2x2 minors of the 2x4 matrix (P; Q) vanish, for P != 0: every
    boundary point has a coordinate equal to 1.

    The three minors through any nonzero coordinate i of P suffice: they
    give Q = (Q[i] / P[i]) P, and then every minor vanishes.
    """
    for i in (3, 2, 1, 0):
        if P[i]:
            for j in range(4):
                if j != i and K.mul(P[i], Q[j]) != K.mul(P[j], Q[i]):
                    return False
            return True


def fixed_points_surface(ctx: TowerContext, eta: int, zeta: int,
                         with_unipotent: bool) -> FixedPointReport:
    """All fixed points of the chosen endomorphism, grouped by stratum.

    eta is a level-1 encoding and zeta a level-2 encoding.  Each point
    is checked against both the surface equation and the projective
    fixed-point condition (see the module docstring).
    """
    eta2 = ctx.embed(eta)  # raises unless eta is a level-1 encoding
    ctx.mu_index(zeta)  # raises unless zeta is in mu_{q+1}
    K = coordinate_extension(ctx)
    with_u = bool(with_unipotent)
    if with_u:
        # Stratum 1 (chart Z3 = 1): y^q = zeta y, zeta y^2 = -eta,
        # x^q - zeta x = -zeta y, z^q - z = -eta.
        lv2 = ctx.levels[2]
        neg_eta = lv2.neg_enc(eta2)
        pairs = [(x, y) for y in K.coset(zeta)
                 if lv2.mul_enc(zeta, lv2.mul_enc(y, y)) == neg_eta
                 for x in _x_solutions(ctx, K, zeta, y)]
    else:
        # Stratum 1 (chart Z3 = 1): x^q = zeta x, y^q = zeta y,
        # x y^q - x^q y = -eta, z^q - z = -eta.  For x, y in coset(zeta),
        # x y^q - x^q y = zeta x y - zeta x y = 0: the pairs are all of
        # coset(zeta)^2 when eta = 0, and none otherwise.  _chart still
        # checks R(x, y) = L(z) = 0 at each point of the eta = 0 cell;
        # the pairs and zeta are the same in the eta != 0 cells, so that
        # check also shows their sigma1 empty.
        coset = K.coset(zeta)
        pairs = ([(x, y) for x in coset for y in coset] if eta == 0
                 else ())
    strata = {"sigma1": (_chart(K, zeta, with_u, pairs, _z_sides(ctx, K, eta2))
                         if pairs else []),
              **_boundary(ctx, K, zeta, with_u)}
    points = [P for pts in strata.values() for P in pts]
    return FixedPointReport(
        total=len(points),
        sigma_counts={name: len(pts) for name, pts in strata.items()},
        points=points,
    )


def closed_form_fixed_count(ctx: TowerContext, eta: int, zeta: int,
                            with_unipotent: bool) -> int:
    """Expected fixed point count from the stratum solvability analysis;
    eta is a level-1 encoding and zeta a level-2 encoding.

    With the unipotent twist, eta != 0 and p = 2 the count is q^2+q+1.
    Squaring is bijective, so exactly one y has y^2 = eta/zeta, and that
    y satisfies y^q = zeta y: both sides square to eta zeta, since
    zeta^q = 1/zeta and eta^q = eta.  The maps z -> z^q - z and
    x -> x^q - zeta x each have a kernel of size q on F_{q^4}, and both
    right-hand sides lie in their images: with c^q - c = 1, which has a
    solution since Tr_{F_{q^4}/F_q}(1) = 4 = 0, z = c eta and x = c y
    solve z^q - z = eta and x^q - zeta x = zeta y.  That gives q * q = q^2
    points in sigma1.  The coset {a : a^q = zeta a} has q elements and
    [1:0:0:0] adds one more, so sigma2 has q+1.
    """
    ctx.levels[1].check_enc(eta)
    ctx.mu_index(zeta)  # raises unless zeta is in mu_{q+1}
    q = ctx.q
    if not with_unipotent:
        if eta == 0:
            return (q + 1) * (q * q + 1)
        return q * q + q + 1
    if eta == 0 or ctx.p == 2:
        return q * q + q + 1
    solvable = ctx.nu(zeta) * ctx.legendre(ctx.levels[1].neg_enc(eta)) == 1
    return (2 * q * q + q + 1) if solvable else (q + 1)


def fixed_point_grid(ctx: TowerContext, with_unipotent: bool) -> dict:
    """{(eta encoding, zeta encoding): GridCell} over all eta in F_q and
    zeta in mu_{q+1}, zeta-major and eta-minor.

    The only enumerator of the grid: each cell is solved, and its
    points checked, once per tower, then kept on the tower.
    """
    key = bool(with_unipotent)

    def build():
        grid = {}
        for zeta in ctx.enumerate_mu():
            for eta in range(ctx.q):
                rep = fixed_points_surface(ctx, eta, zeta, key)
                grid[(eta, zeta)] = GridCell(
                    rep.total, rep.sigma_counts,
                    closed_form_fixed_count(ctx, eta, zeta, key))
        return grid
    return ctx.table(("grid", key), build)


# ---------------------------------------------------------------------------
# Formal transversality: every coordinate of either endomorphism is a
# polynomial in q-th powers, so the differential of the map vanishes
# identically and the differential of (map - id) is -id, which is
# invertible.

def differential_vanishes(ctx: TowerContext) -> bool:
    """True when every formal partial of every chart component of either
    endomorphism is 0 mod p.

    On the chart Z3 = 1 the components are (x + y)^q (x^q without the
    unipotent part), y^q and (z + eta)^q, up to the factor zeta, which
    does not change the exponents of x, y and z.  Their monomials are
    C(q, k) x^k y^(q-k) and C(q, k) z^k for 0 <= k <= q, so the formal
    partial of each is 0 or j C(q, j) times a monomial, for some
    1 <= j <= q: j = k for d/dx and d/dz, and j = q - k for d/dy, as
    C(q, k) = C(q, q - k).  The powers x^q and y^q are the case j = q.
    The condition is therefore j C(q, j) = 0 mod p for 1 <= j <= q, the
    same for both variants.  It holds because j C(q, j) = q C(q-1, j-1)
    and p divides q; the case j = q, which is q itself, shows that it
    needs p | q.

    This makes the differential of (endomorphism - identity) equal to
    minus the identity at every fixed point, so each fixed point is
    transverse (multiplicity one).
    """
    p, q = ctx.p, ctx.q
    return all(j * comb(q, j) % p == 0 for j in range(1, q + 1))


# ---------------------------------------------------------------------------
# Blind cross-check at q = 2, 3, 4 and 8: enumerate the surface over an
# absolute model of F_{q^{2p}}, F_p[x]/(lex-least irreducible of degree
# 2ep), built independently of the Artin-Schreier extension, and test
# each point for fixedness directly.

BLIND_MAX_FIELD_SIZE = 4096  # F_{q^{2p}} at q = 8, the largest q scanned


def _absolute_model(ctx: TowerContext, d: int):
    """The level F = F_{p^d} and the embedding table of F_{q^2} into F,
    through the lex-least root there of the modulus of F_{q^2}; kept
    on the tower."""
    def build():
        F, lv2 = Level(ctx.p, d), ctx.levels[2]
        return F, embedding_table(TowerContext._find_root(lv2.modulus, F), lv2, F)
    return ctx.table(("blind model", d), build)


def blind_fixed_point_count(ctx: TowerContext, eta: int, zeta: int,
                            with_unipotent: bool) -> int:
    """Independent count: scan the whole surface over F_{q^{2p}}.

    eta is a level-1 encoding and zeta a level-2 encoding.  Only
    feasible for tiny q (the field has q^{2p} elements); intended as a
    cross-check of the structured solver at q = 2, 3, 4 and 8, where
    q^{2p} is at most BLIND_MAX_FIELD_SIZE.
    """
    ctx.levels[1].check_enc(eta)
    ctx.mu_index(zeta)  # raises unless zeta is in mu_{q+1}
    p, q = ctx.p, ctx.q
    d = 2 * ctx.e * p
    if p ** d > BLIND_MAX_FIELD_SIZE:
        raise BudgetExceededError("blind enumeration field too large")
    F, emb = _absolute_model(ctx, d)
    add, mul, neg = F.add_enc, F.mul_enc, F.neg_enc
    ek = emb[ctx.embed(eta)]
    zk = emb[zeta]

    frob = F.power_map(q)
    # preimages of z -> z^q - z
    pre = defaultdict(list)
    for z, fz in enumerate(frob):
        pre[add(fz, neg(z))].append(z)

    def image(P):
        z0, z1, z2, z3 = P
        w0 = frob[add(z0, z1)] if with_unipotent else frob[z0]
        w1 = frob[z1]
        w2 = mul(zk, frob[add(z2, mul(ek, z3))])
        w3 = mul(zk, frob[z3])
        return (w0, w1, w2, w3)

    def proj_eq(P, Q):
        for i in range(4):
            for j in range(i + 1, 4):
                if mul(P[i], Q[j]) != mul(P[j], Q[i]):
                    return False
        return True

    def fixed(points):
        return sum(1 for P in points if proj_eq(P, image(P)))

    count = 0
    one = 1  # the encoding of 1
    # The prune on y follows from fixedness alone.  A fixed P has
    # image(P) = lambda P for one nonzero lambda.  In the chart Z3 = 1
    # the last image coordinate is zeta * 1^q = zeta, so lambda = zeta;
    # on the boundary Z3 = 0, Z2 = 1 the third is zeta (1 + eta * 0)^q =
    # zeta, so again lambda = zeta.  In both variants the second image
    # coordinate is y^q, hence y^q = zeta y.  The line Z2 = Z3 = 0 fixes
    # no lambda this way and is scanned without the prune; every
    # survivor still gets the full projective check.
    y_ok = [y for y, fy in enumerate(frob) if fy == mul(zk, y)]
    for y in y_ok:
        fy = frob[y]
        for x, fx in enumerate(frob):
            # chart Z3 = 1, and the boundary Z3 = 0, Z2 = 1 where v = 0
            v = add(mul(x, fy), neg(mul(fx, y)))
            if v in pre:  # so is 0 = 0^q - 0
                count += fixed([(x, y, z, one) for z in pre[v]]
                               + ([(x, y, one, 0)] if v == 0 else []))
    # boundary line Z2 = Z3 = 0: [1 : y : 0 : 0] and [0 : 1 : 0 : 0]
    line = [(one, y, 0, 0) for y, fy in enumerate(frob) if fy == y]
    return count + fixed(line + [(0, one, 0, 0)])
