"""End-to-end acceptance suite.

Each test covers one numbered criterion, checks it exactly (zero
tolerance) and prints a single pass/fail line.
"""

import sys

import pytest

from ffverify import (AdditiveCharacter, CycNumber, IsotypicLabel,
                      VarietySpec, brauer_decompose, brauer_irreps,
                      build_tower, closed_form_fixed_count, conductor,
                      count_points, dim_mod_ell_unitary, dim_v_isotypic,
                      dim_w_isotypic, ell_parts, ell_regular_classes,
                      gauss_sum, o_minus_table, ordinary_irreps,
                      theta_mod_ell, theta_ordinary,
                      compare_semisimplifications)
from ffverify.characters import DihedralIrrep, char_of
from ffverify.fixed_points import fixed_point_grid
from ffverify.traces import (character_difference_at_unipotent,
                             expected_character_difference, sheaf_trace_A2)


def _report(num: int, name: str, ok: bool):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    print(line)
    sys.stdout.flush()
    assert ok, line


TOWERS = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2), 11: (11, 1),
          13: (13, 1), 2: (2, 1), 4: (2, 2)}
ODD_GRID_QS = (3, 5, 7, 9, 11, 13)


def _grid_vs_closed_form(q: int, with_unipotent: bool) -> bool:
    ctx = build_tower(*TOWERS[q])
    grid = fixed_point_grid(ctx, with_unipotent)
    for zeta in ctx.enumerate_mu():
        for eta in range(q):
            got = grid[(eta, zeta)].total
            want = closed_form_fixed_count(ctx, eta, zeta, with_unipotent)
            if got != want:
                return False
    return True


def test_criterion_1_twisted_fixed_point_grid():
    ok = all(_grid_vs_closed_form(q, True) for q in ODD_GRID_QS)
    _report(1, "twisted fixed point grid, q in {3,5,7,9,11,13}", ok)


def test_criterion_2_untwisted_fixed_point_grid():
    ok = all(_grid_vs_closed_form(q, False) for q in ODD_GRID_QS)
    _report(2, "untwisted fixed point grid, q in {3,5,7,9,11,13}", ok)


def test_criterion_3_gauss_identities():
    ok = True
    for q in (3, 5, 7, 9):
        ctx = build_tower(*TOWERS[q])
        m = conductor(ctx)
        sign = ctx.legendre(ctx.p - 1)  # -1 has encoding p - 1
        expected_sq = CycNumber.from_rational(m, sign * q)
        g1 = gauss_sum(ctx, AdditiveCharacter(ctx, 1))
        for a in range(1, q):
            g = gauss_sum(ctx, AdditiveCharacter(ctx, a))
            ok = ok and g * g == expected_sq
            ok = ok and g == ctx.legendre(a) * g1
    _report(3, "Gauss sum square and twist identities, q in {3,5,7,9}", ok)


def test_criterion_4_trace_identities():
    ok = True
    for q in ODD_GRID_QS:
        ctx = build_tower(*TOWERS[q])
        psi = AdditiveCharacter(ctx, 1)
        m = conductor(ctx)
        for zeta in ctx.enumerate_mu():
            ok = ok and (sheaf_trace_A2(ctx, zeta, False, psi)
                         == CycNumber.from_rational(m, q))
        ok = ok and (character_difference_at_unipotent(ctx, 1, psi)
                     == gauss_sum(ctx, psi))
        for n in (1, 2, 3):
            got = character_difference_at_unipotent(ctx, n, psi)
            ok = ok and got == expected_character_difference(ctx, n, psi)
            ok = ok and bool(got)
    _report(4, "plane trace, averaged trace and discrepancy identities, "
               "q in {3,5,7,9,11,13}", ok)


def test_criterion_5_dimension_formulas():
    ok = True
    for q in (2, 3, 4, 5, 7):
        m = q + 1
        for n in (2, 3, 4):
            total = 0
            for k in range(m):
                if (2 * k) % m == 0:
                    for kappa in ("+", "-"):
                        d = dim_w_isotypic(n, q, IsotypicLabel(k, kappa))
                        ok = ok and d >= 0
                        total += d
                else:
                    d = dim_w_isotypic(n, q, IsotypicLabel(k))
                    ok = ok and d > 0
                    total += d
            ok = ok and total == q ** (2 * n)
            ok = ok and dim_v_isotypic(n, q, True) >= 0
            ok = ok and dim_v_isotypic(n, q, False) >= 0
    ok = ok and dim_w_isotypic(2, 3, IsotypicLabel(0, "+")) == 15
    ok = ok and dim_w_isotypic(2, 3, IsotypicLabel(0, "-")) == 6
    ok = ok and dim_w_isotypic(2, 3, IsotypicLabel(2, "+")) == 10
    ok = ok and dim_w_isotypic(2, 2, IsotypicLabel(0, "+")) == 5
    ok = ok and dim_w_isotypic(2, 2, IsotypicLabel(0, "-")) == 1
    _report(5, "dimension integrality, totals and pinned values", ok)


def test_criterion_6_mod_ell_dimensions():
    ok = True
    for ell in (3, 5, 7, 11):
        for q in (2, 3, 4, 5, 7, 8, 9):
            if ell == char_of(q):
                continue
            la, r = ell_parts(q, ell)
            for n in (2, 3):
                s = (-1) ** n
                for k in range(q + 1):
                    d = dim_mod_ell_unitary(n, q, k, ell)
                    if la == 1:
                        ok = ok and d == dim_v_isotypic(n, q, k % (q + 1) == 0)
                    else:
                        base = (q ** n - s) // (q + 1)
                        extra = (1 + s) // 2 if k % r == 0 else 0
                        ok = ok and d == base + extra
    _report(6, "mod-ell dimension formula and ordinary reduction", ok)


def test_criterion_7_dihedral_tables():
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9):
        tab = o_minus_table(q, "ordinary")
        ok = ok and tab.row_orthogonality_ok()
        ok = ok and tab.column_orthogonality_ok()
        ok = ok and sum(r.dim ** 2 for r in tab.irreps) == 2 * (q + 1)
    for q, ell in ((2, 3), (4, 5), (5, 3), (8, 3), (9, 5)):
        ok = ok and (len(brauer_irreps(q, ell))
                     == len(ell_regular_classes(q, ell)))

    def labels(q, ell, pi):
        return sorted((t.label(), mult) for t, mult in brauer_decompose(q, ell, pi))

    ok = ok and labels(2, 3, DihedralIrrep("two", 1, None)) == [
        ("(0,+)", 1), ("(0,-)", 1)]
    ok = ok and labels(4, 5, DihedralIrrep("two", 1, None)) == [
        ("(0,+)", 1), ("(0,-)", 1)]
    ok = ok and labels(4, 5, DihedralIrrep("two", 2, None)) == [
        ("(0,+)", 1), ("(0,-)", 1)]
    ok = ok and labels(5, 3, DihedralIrrep("two", 1, None)) == [
        ("(3,+)", 1), ("(3,-)", 1)]
    ok = ok and labels(5, 3, DihedralIrrep("two", 2, None)) == [
        ("(0,+)", 1), ("(0,-)", 1)]
    _report(7, "dihedral orthogonality, Brauer squares and goldens", ok)


def test_criterion_8_theta_tables():
    ok = True
    for n, q, ell in ((2, 2, 3), (2, 3, 5), (2, 4, 5), (3, 2, 3)):
        ordinary = theta_ordinary(n, q)
        modular = theta_mod_ell(n, q, ell)
        ok = ok and len(ordinary.entries) == len(ordinary_irreps(q))
        ok = ok and len(modular.entries) == len(brauer_irreps(q, ell))
        ok = ok and all(c["pass"] for c in ordinary.checks)
        ok = ok and all(c["pass"] for c in modular.checks)
        la, _ = ell_parts(q, ell)
        flagged = [e for e in modular.entries
                   if e.status == "nontrivial-extension"]
        if la > 1:
            ok = ok and len(flagged) == 1
            ok = ok and flagged[0].tau == DihedralIrrep("one", 0, "+")
            ok = ok and (sum(d for d, _ in flagged[0].constituents)
                         == flagged[0].dim)
        else:
            ok = ok and not flagged
        rows = compare_semisimplifications(n, q, ell)
        ok = ok and all(row["deficit_matches"] for row in rows)
        ok = ok and all(row["deficit"] == (1 if row["exceptional"] else 0)
                        for row in rows)
    _report(8, "theta table cardinalities, extension flags, deficits", ok)


def test_criterion_9_torsor_and_quotient_counts():
    ok = True
    for q in (2, 3, 4):
        ctx = build_tower(*TOWERS[q])
        for n in (1, 2, 3):
            y = count_points(ctx, VarietySpec("Y", n), 2)
            yt = count_points(ctx, VarietySpec("Ytilde", n), 2)
            ok = ok and yt == (q + 1) * y
    _report(9, "torsor ratio of the Hermitian point counts", ok)
