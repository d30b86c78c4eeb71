"""Fixed points of twisted endomorphisms of the quadric-like surface.

The surface lives in P^3 with equation Z2^q Z3 - Z2 Z3^q = Z0 Z1^q - Z0^q Z1.
Two q-power endomorphisms are considered, indexed by eta in F_q and
zeta in mu_{q+1}:

  with unipotent part:    [Z0:Z1:Z2:Z3] -> [(Z0+Z1)^q : Z1^q : zeta (Z2 + eta Z3)^q : zeta Z3^q]
  without unipotent part: [Z0:Z1:Z2:Z3] -> [Z0^q : Z1^q : zeta (Z2 + eta Z3)^q : zeta Z3^q]

Fixed points in the affine chart Z3 = 1 satisfy x^{q^2} = x - 2y (with
the unipotent part), hence x^{q^{2p}} = x: their coordinates live in
F_{q^{2p}}, realized here as the Artin-Schreier extension of F_{q^2}.
The solver enumerates the defining equation systems: each affine
equation x^q - zeta x = r has one solution from an F_p-linear solve,
plus its kernel, the coset {a in F_{q^2} : a^q = zeta a}.  Every
reported point is re-verified by direct substitution.
"""

from __future__ import annotations

from collections import defaultdict
from math import comb
from typing import NamedTuple

from .fields import ArtinSchreierExtension, Level, TowerContext, embedding_table
from .cyclotomic import nu_sign
from .varieties import BudgetExceededError


class FixedPointReport(NamedTuple):
    total: int
    sigma_counts: dict
    points: list  # projective quadruples of Artin-Schreier encodings
    field_degree: int  # degree of the coordinate field over F_p


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


class _FrobMemo(dict):
    """K.frob, memoised by value: frob[a] is a^q.  The coordinates of one
    cell's points come from a few small sets, so each x^q is computed
    once per cell."""

    def __init__(self, K: ArtinSchreierExtension):
        super().__init__()
        self.K = K

    def __missing__(self, a):
        fa = self[a] = self.K.frob(a)
        return fa


def _surface_holds(K: ArtinSchreierExtension, frob, P) -> bool:
    """Z2^q Z3 - Z2 Z3^q = Z0 Z1^q - Z0^q Z1, tested as a + d = c + b
    for the equation a - b = c - d."""
    z0, z1, z2, z3 = P
    return (K.add(K.mul(frob[z2], z3), K.mul(frob[z0], z1))
            == K.add(K.mul(z0, frob[z1]), K.mul(z2, frob[z3])))


def _apply_endo(K: ArtinSchreierExtension, frob, zeta_k, eta_k, with_u: bool, P):
    z0, z1, z2, z3 = P
    w0 = frob[K.add(z0, z1) if with_u else z0]
    w1 = frob[z1]
    w2 = K.mul(zeta_k, frob[K.add(z2, K.mul(eta_k, z3))])
    w3 = K.mul(zeta_k, frob[z3])
    return (w0, w1, w2, w3)


def _projectively_equal(K: ArtinSchreierExtension, P, Q) -> bool:
    """All 2x2 minors of the 2x4 matrix (P; Q) vanish.

    For P != 0 the three minors through any nonzero coordinate i of P
    suffice: they give Q = (Q[i] / P[i]) P, and then every minor
    vanishes.  The last one is taken: on the chart P[3] = 1 and Q[3] =
    zeta, so every product has a factor in F_{q^2}, which K.mul takes by
    its shortcut.  For P = 0 all six are tested.
    """
    for i in (3, 2, 1, 0):
        if P[i]:
            for j in range(4):
                if j != i and K.mul(P[i], Q[j]) != K.mul(P[j], Q[i]):
                    return False
            return True
    return all(K.mul(P[i], Q[j]) == K.mul(P[j], Q[i])
               for i in range(4) for j in range(i + 1, 4))


def fixed_points_surface(ctx: TowerContext, eta: int, zeta: int,
                         with_unipotent: bool) -> FixedPointReport:
    """All fixed points of the chosen endomorphism, grouped by stratum.

    eta is a level-1 encoding and zeta a level-2 encoding.  Each point
    is verified by substitution into both the surface equation and the
    projective fixed-point condition.
    """
    ctx.levels[1].check_enc(eta)
    ctx.mu_index(zeta)  # raises unless zeta is in mu_{q+1}
    K = coordinate_extension(ctx)
    lv2 = ctx.levels[2]
    mul, neg = lv2.mul_enc, lv2.neg_enc
    eta2 = ctx.embed(eta)

    points = []
    sigma_counts = {}

    # In the chart Z3 = 1 both variants need z^q - z = -eta.
    neg_eta = neg(eta2)
    z_solutions = K.solve_affine(1, neg_eta)
    # Both variants use the coset {a in F_{q^2} : a^q = zeta a}.
    coset = K.coset(zeta)
    if with_unipotent:
        # Stratum 1 (chart Z3 = 1): y^q = zeta y, zeta y^2 = -eta,
        # x^q - zeta x = -zeta y.
        s1 = []
        for y, _ in coset:
            if mul(zeta, mul(y, y)) != neg_eta:
                continue
            for x in K.solve_affine(zeta, neg(mul(zeta, y))):
                for z in z_solutions:
                    s1.append((x, y, z, 1))
        # Stratum 2 (boundary): [z : 0 : 1 : 0] with z^q = zeta z,
        # together with [1 : 0 : 0 : 0].
        s2 = [(z, 0, 1, 0) for z, _ in coset]
        s2.append((1, 0, 0, 0))
        strata = {"sigma1": s1, "sigma2": s2}
    else:
        # Stratum 1 (chart Z3 = 1): x^q = zeta x, y^q = zeta y,
        # x y^q - x^q y = -eta.
        s1 = [(x, y, z, 1) for x, y in K.coset_pairs(zeta).get(neg_eta, ())
              for z in z_solutions]
        # Stratum 2: [x : y : 1 : 0] with x, y in the same coset.
        s2 = [(x, y, 1, 0) for x, _ in coset for y, _ in coset]
        # Stratum 3: the rational line [Z0 : Z1 : 0 : 0] over F_q.
        s3 = [(1, ctx.embed(a), 0, 0) for a in range(ctx.q)]
        s3.append((0, 1, 0, 0))
        strata = {"sigma1": s1, "sigma2": s2, "sigma3": s3}

    frob = _FrobMemo(K)
    for name, pts in strata.items():
        for P in pts:
            if not _surface_holds(K, frob, P):
                raise ArithmeticError(
                    f"reported point violates the surface equation ({name})")
            img = _apply_endo(K, frob, zeta, eta2, with_unipotent, P)
            if not _projectively_equal(K, P, img):
                raise ArithmeticError(f"reported point is not fixed ({name})")
        sigma_counts[name] = len(pts)
        points.extend(pts)

    return FixedPointReport(
        total=len(points),
        sigma_counts=sigma_counts,
        points=points,
        field_degree=K.dim,
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
    solvable = nu_sign(ctx, zeta) * ctx.legendre(ctx.levels[1].neg_enc(eta)) == 1
    return (2 * q * q + q + 1) if solvable else (q + 1)


def fixed_point_grid(ctx: TowerContext, with_unipotent: bool) -> dict:
    """{(eta encoding, zeta encoding): GridCell} over all eta in F_q and
    zeta in mu_{q+1}, zeta-major and eta-minor.

    The only enumerator of the grid: each cell is solved (and its
    points re-verified) once per tower, then kept on the tower.
    """
    key = bool(with_unipotent)

    def build():
        grid = {}
        for zeta in ctx.enumerate_mu(ctx.q + 1):
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
# Blind cross-check at q = 2, 3 and 4: enumerate the surface over an
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
    cross-check of the structured solver at q = 2, 3 and 4.
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
