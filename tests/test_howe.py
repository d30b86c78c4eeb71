"""Theta tables, semisimplification comparison and the global verifier."""

import sys

import pytest

from ffverify import (CharacterError, brauer_irreps,
                      compare_semisimplifications, ell_regular_classes,
                      ordinary_irreps, report_to_markdown, theta_mod_ell,
                      theta_ordinary, verify_all)
from ffverify.characters import DihedralIrrep, ell_parts


GOLDEN_PARAMS = [(2, 2, 3), (2, 3, 5), (2, 4, 5), (3, 2, 3)]


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (3, 2), (2, 5)])
def test_ordinary_table(n, q):
    table = theta_ordinary(n, q)
    assert len(table.entries) == len(ordinary_irreps(q))
    assert all(e.status == "irreducible" for e in table.entries)
    assert all(not e.constituents for e in table.entries)
    assert all(c["pass"] for c in table.checks)
    total = sum(e.dim * e.tau.dim for e in table.entries)
    assert total == q ** (2 * n)
    if (n, q) == (2, 3):  # the trivial tau has one entry, of dimension 15
        trivial = DihedralIrrep("one", 0, "+")
        assert [e.dim for e in table.entries if e.tau == trivial] == [15]


def test_ordinary_table_needs_a_prime_power():
    with pytest.raises(CharacterError):
        theta_ordinary(2, 6)


def test_tables_need_n_at_least_two():
    with pytest.raises(CharacterError):
        theta_ordinary(1, 3)
    with pytest.raises(CharacterError):
        theta_mod_ell(1, 3, 5)


@pytest.mark.parametrize("n,q,ell", GOLDEN_PARAMS)
def test_mod_ell_parametrization_cardinality(n, q, ell):
    table = theta_mod_ell(n, q, ell)
    assert len(table.entries) == len(brauer_irreps(q, ell))
    assert len(table.entries) == len(ell_regular_classes(q, ell))
    assert all(c["pass"] for c in table.checks)


@pytest.mark.parametrize("n,q,ell", GOLDEN_PARAMS)
def test_extension_flag_iff_ell_divides_q_plus_one(n, q, ell):
    table = theta_mod_ell(n, q, ell)
    la, _ = ell_parts(q, ell)
    flagged = [e for e in table.entries if e.status == "nontrivial-extension"]
    if la > 1:
        assert len(flagged) == 1
        e = flagged[0]
        assert e.tau == DihedralIrrep("one", 0, "+")
        assert sum(d for d, _ in e.constituents) == e.dim
        dims = sorted(d for d, _ in e.constituents)
        assert dims == [1, e.dim - 1]
        labels = {lab for _, lab in e.constituents}
        assert "trivial" in labels
    else:
        assert not flagged


@pytest.mark.parametrize("n,q,ell", GOLDEN_PARAMS)
def test_provenance_tags(n, q, ell):
    for table in (theta_ordinary(n, q), theta_mod_ell(n, q, ell)):
        for e in table.entries:
            assert e.provenance == {"dim": "computed",
                                    "status": "asserted-by-paper"}
            assert e.lusztig_note.startswith("series:")


@pytest.mark.parametrize("n,q,ell", GOLDEN_PARAMS)
def test_semisimplification_deficit_pattern(n, q, ell):
    rows = compare_semisimplifications(n, q, ell)
    assert len(rows) == len(ordinary_irreps(q))
    la, r = ell_parts(q, ell)
    for row in rows:
        assert row["deficit_matches"]
        if row["exceptional"]:
            assert row["deficit"] == 1
        else:
            assert row["deficit"] == 0
    expected_exceptional = sum(
        1 for pi in ordinary_irreps(q)
        if pi.kind == "two" and la > 1 and pi.xi % r == 0)
    assert sum(1 for row in rows if row["exceptional"]) == expected_exceptional


def test_table_serialization():
    table = theta_mod_ell(2, 2, 3)
    blob = table.to_json()
    assert blob["params"] == {"n": 2, "q": 2, "mode": "mod-ell", "ell": 3}
    assert {"tau", "dim", "status", "constituents", "lusztig_note",
            "provenance"} <= set(blob["entries"][0])
    md = table.to_markdown()
    assert md.startswith("# Theta table:")
    assert "| tau |" in md
    assert "nontrivial-extension" in md


def test_verifier_rejects_unsupported_parameters():
    with pytest.raises(CharacterError):
        verify_all(2, 3, 1, 2)
    with pytest.raises(CharacterError):
        verify_all(2, 3, 1, 3)
    with pytest.raises(CharacterError):
        verify_all(1, 3, 1, 5)


def test_verifier_passes_odd_characteristic():
    report = verify_all(2, 3, 1, 5)
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert "gauss-square" in names
    assert "fixed-point-grid-closed-form" in names
    assert "torsor-ratio-n2" in names


def test_verifier_runs_the_trace_and_grid_checks_at_q9():
    report = verify_all(2, 3, 2, 5)
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    for name in ("gauss-square", "plain-trace-constant-q",
                 "averaged-unipotent-trace-gauss", "character-difference-n1",
                 "character-difference-n2", "fixed-point-grid-closed-form",
                 "endomorphism-differential-vanishes"):
        assert checks.get(name) is True, name
    assert report["all_passed"]


def test_verifier_enumerates_the_fixed_point_grid_once(monkeypatch):
    import ffverify
    from ffverify import build_tower, fixed_points

    build_tower.cache_clear()
    real = fixed_points.fixed_points_surface
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # rebind every module-level reference, so a second enumerator that
    # imported the solver by name is counted too
    for mod in [ffverify] + [m for name, m in sys.modules.items()
                             if name.startswith("ffverify.")]:
        if getattr(mod, "fixed_points_surface", None) is real:
            monkeypatch.setattr(mod, "fixed_points_surface", counting)
    verify_all(2, 3, 1, 5)
    q = 3
    assert len(calls) == 2 * q * (q + 1)


def test_verifier_passes_characteristic_two():
    report = verify_all(2, 2, 1, 3)
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    # Legendre-symbol-based checks are not defined in characteristic 2
    assert "gauss-square" not in names


def test_report_markdown():
    report = verify_all(2, 2, 1, 3)
    md = report_to_markdown(report)
    assert md.startswith("# Verification report")
    assert "All passed: yes" in md
