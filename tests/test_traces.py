"""Trace identities derived from the fixed point grids."""

import pytest
from fractions import Fraction

from ffverify import (AdditiveCharacter, CycNumber, build_tower, conductor,
                      gauss_sum)
from ffverify.fields import FieldError
from ffverify.fixed_points import fixed_point_grid
from ffverify.traces import (character_difference_at_unipotent,
                             expected_character_difference, sheaf_trace_A2)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_plain_trace_is_q(p, e):
    ctx = build_tower(p, e)
    q = ctx.q
    psi = AdditiveCharacter(ctx, 1)
    m = conductor(ctx)
    for zeta in ctx.enumerate_mu():
        assert sheaf_trace_A2(ctx, zeta, False, psi) == CycNumber.from_rational(m, q)


def test_plain_trace_independent_of_psi():
    ctx = build_tower(3, 1)
    for a in range(1, ctx.q):
        psi = AdditiveCharacter(ctx, a)
        for zeta in ctx.enumerate_mu():
            v = sheaf_trace_A2(ctx, zeta, False, psi)
            assert v == CycNumber.from_rational(conductor(ctx), 3)


def test_trivial_psi_rejected():
    ctx = build_tower(3, 1)
    with pytest.raises(FieldError):
        sheaf_trace_A2(ctx, 1, False, AdditiveCharacter(ctx, 0))


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_averaged_twisted_trace_is_the_gauss_sum(p, e):
    ctx = build_tower(p, e)
    psi = AdditiveCharacter(ctx, 1)
    assert character_difference_at_unipotent(ctx, 1, psi) == gauss_sum(ctx, psi)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_character_difference_value(p, e, n):
    ctx = build_tower(p, e)
    psi = AdditiveCharacter(ctx, 1)
    got = character_difference_at_unipotent(ctx, n, psi)
    want = expected_character_difference(ctx, n, psi)
    assert got == want
    assert got == gauss_sum(ctx, psi) * ctx.q ** (n - 1)
    assert got


def test_character_difference_for_other_psi():
    ctx = build_tower(3, 1)
    for a in range(1, ctx.q):
        psi = AdditiveCharacter(ctx, a)
        for n in (1, 2):
            assert (character_difference_at_unipotent(ctx, n, psi)
                    == expected_character_difference(ctx, n, psi))


def test_grid_shape_and_cache():
    ctx = build_tower(3, 1)
    g1 = fixed_point_grid(ctx, True)
    g2 = fixed_point_grid(ctx, True)
    assert g1 is g2
    assert len(g1) == (ctx.q + 1) * ctx.q


def test_untwisted_trace_unrolls_to_the_eta_sum():
    # q = 3 sanity: (1/9) (40 * 1 + 13 * sum_{eta != 0} psi^{-1}(eta))
    # = (40 - 13) / 9 = 3
    ctx = build_tower(3, 1)
    grid = fixed_point_grid(ctx, False)
    assert grid[(0, 1)].total == 40  # eta = 0, zeta = 1
    for eta in range(1, ctx.q):
        assert grid[(eta, 1)].total == 13
    psi = AdditiveCharacter(ctx, 1)
    v = sheaf_trace_A2(ctx, 1, False, psi)
    assert v == CycNumber.from_rational(conductor(ctx), 3)
    assert v.as_rational() == Fraction(40 - 13, 9)


def test_verify_reads_each_plain_trace_only_where_it_counts(monkeypatch):
    """At q = 5, verify reads T(zeta) once per zeta for the constant-q
    check and once more for n = 2, and T_u(zeta) once per zeta for each
    of n = 1 and 2: 6 + 6 + 12 = 24 calls.  The n = 1 difference needs
    no T(zeta), since T^0 = 1, and it is also the averaged trace, so it
    is computed once for both of its checks."""
    from ffverify import howe, traces
    calls = []
    real = traces.sheaf_trace_A2

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(traces, "sheaf_trace_A2", counted)
    monkeypatch.setattr(howe, "sheaf_trace_A2", counted)
    assert howe.verify_all(2, 5, 1, 3)["all_passed"]
    assert len(calls) == 24
