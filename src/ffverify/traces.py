"""Lefschetz-style trace bookkeeping built on the fixed point counts.

The basic quantity is the twisted trace on the rank-one sheaf attached
to a nontrivial additive character psi of F_q, computed from the
surface fixed point counts by Fourier inversion over eta:

    T(zeta) = (1/q^2) sum_eta psi^{-1}(eta) #Fix(f_{eta, zeta}).

With the unipotent twist absent this is q for every zeta; with the
twist present its nu-weighted average over mu_{q+1} is the quadratic
Gauss sum, and the n-variable analogue picks up a factor q^{n-1}.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import TowerContext, FieldError
from .cyclotomic import AdditiveCharacter, CycNumber, conductor, gauss_sum
from .fixed_points import fixed_point_grid


def sheaf_trace_A2(ctx: TowerContext, zeta: int,
                   with_unipotent: bool, psi: AdditiveCharacter) -> CycNumber:
    """Trace of the twisted Frobenius on the two-variable sheaf
    cohomology, Tate-normalized; exact value in Q(zeta_{p(q+1)}).
    zeta is a level-2 encoding."""
    if psi.is_trivial():
        raise FieldError("psi must be nontrivial")
    grid = fixed_point_grid(ctx, with_unipotent)
    neg = ctx.levels[1].neg_enc
    # psi^{-1}(eta) = psi(-eta)
    total = sum(psi(neg(eta)) * grid[(eta, zeta)].total for eta in range(ctx.q))
    return total * Fraction(1, ctx.q ** 2)


def character_difference_at_unipotent(ctx: TowerContext, n: int,
                                      psi: AdditiveCharacter) -> CycNumber:
    """Difference of the two nu-isotypic extension characters at the
    basic unipotent element, computed from the trace product formula:

        (1/(q+1)) sum_zeta nu(zeta) T_u(zeta) T(zeta)^{n-1}.

    Equals q^{n-1} G(psi)."""
    if n < 1:
        raise FieldError("n must be at least 1")
    m = conductor(ctx)
    total = CycNumber.from_rational(m, 0)
    for zeta in ctx.enumerate_mu():
        term = ctx.nu(zeta) * sheaf_trace_A2(ctx, zeta, True, psi)
        if n > 1:  # T^0 = 1: the plain trace is read only when it counts
            term = term * sheaf_trace_A2(ctx, zeta, False, psi) ** (n - 1)
        total = total + term
    return total * Fraction(1, ctx.q + 1)


def expected_character_difference(ctx: TowerContext, n: int,
                                  psi: AdditiveCharacter) -> CycNumber:
    return gauss_sum(ctx, psi) * ctx.q ** (n - 1)
