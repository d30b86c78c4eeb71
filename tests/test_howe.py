"""Theta tables, semisimplification comparison and the global verifier."""

import importlib.util
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ffverify import (CharacterError, brauer_irreps, characters, cli,
                      compare_semisimplifications, ell_regular_classes,
                      ordinary_irreps, theta_mod_ell, theta_ordinary,
                      verify_all)
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


def test_mod_ell_table_needs_a_prime_power():
    with pytest.raises(CharacterError, match="not a prime power"):
        theta_mod_ell(2, 6, 5)


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
    md = cli.markdown(*cli.theta_blocks(table))
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


@pytest.mark.parametrize("call,args", [
    (ell_parts, (5, 10 ** 18 + 3)),
    (theta_mod_ell, (2, 5, 10 ** 18 + 3)),
    (verify_all, (2, 3, 1, 10 ** 18 + 3)),
    (theta_ordinary, (2, 2 ** 61 - 1)),
    (theta_ordinary, (2, 2 ** 31 - 1)),
    (theta_mod_ell, (2, 2 ** 31 - 1, 3))],
    ids=["ell_parts", "theta_mod_ell", "verify_all", "theta_ordinary",
         "theta_ordinary-q", "theta_mod_ell-q"])
def test_a_huge_ell_or_q_is_rejected_before_its_trial_division(call, args):
    """10^18 + 3 and 2^61 - 1 are prime: without a bound the trial
    division of ell or q would run for hours.  2^31 - 1 is a prime below
    char_of's bound, so only howe.HOWE_MAX_Q keeps a theta table from
    building its 10^9 rows."""
    start = time.perf_counter()
    with pytest.raises(CharacterError):
        call(*args)
    assert time.perf_counter() - start < 1


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


def test_verifier_enumerates_the_fixed_point_grid_once(rebind_everywhere):
    from ffverify import build_tower, fixed_points

    build_tower.cache_clear()
    real = fixed_points.fixed_points_surface
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # a second enumerator that imported the solver by name is counted too
    rebind_everywhere(real, counting)
    verify_all(2, 3, 1, 5)
    q = 3
    assert len(calls) == 2 * q * (q + 1)


@pytest.fixture
def fresh_brauer_cache():
    """No decomposition cached before or after the test, so that an
    earlier result cannot hide a mutation and a mutated one cannot leak."""
    characters.brauer_decompositions.cache_clear()
    yield
    characters.brauer_decompositions.cache_clear()


def _verify_cli(capsys, *argv):
    code = cli.main(["verify", *argv, "--n", "2", "--format", "json"])
    return code, capsys.readouterr().out


def test_verifier_solves_the_brauer_system_once(monkeypatch,
                                                 fresh_brauer_cache):
    real = characters.row_reduce
    calls = []

    def counting(rows, *args):
        calls.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(characters, "row_reduce", counting)
    report = verify_all(2, 3, 1, 5)
    assert report["all_passed"]
    # one system for every ordinary irreducible of the dihedral group
    assert calls == [len(ell_regular_classes(3, 5))]


def test_a_dropped_class_equation_fails_the_brauer_checks(
        monkeypatch, capsys, fresh_brauer_cache):
    real = characters.row_reduce

    def dropping(rows, *args):
        del rows[-1]
        return real(rows, *args)

    monkeypatch.setattr(characters, "row_reduce", dropping)
    code, out = _verify_cli(capsys, "--p", "3", "--ell", "5")
    assert code == 1
    report = json.loads(out)
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    assert not checks["brauer-decomposition-integrality"]
    assert not checks["semisimplification-deficit-pattern"]
    assert not report["all_passed"]


@pytest.mark.parametrize("factor,reason", [
    (Fraction(1, 2), "non-integral Brauer multiplicity"),
    (2, "Brauer constituents do not fill the dimension")])
def test_scaled_right_hand_sides_fail_the_brauer_checks(
        monkeypatch, capsys, fresh_brauer_cache, factor, reason):
    """At q = 3, ell = 5 every ordinary irreducible reduces to itself.
    Scaling each right-hand side by 1/2 makes every multiplicity 1/2;
    scaling it by 2 makes it 2, which overfills every dimension."""
    real = characters.row_reduce

    def scaling(rows, ncols, *args):
        for row in rows:
            row[ncols:] = [v * factor for v in row[ncols:]]
        return real(rows, ncols, *args)

    monkeypatch.setattr(characters, "row_reduce", scaling)
    code, out = _verify_cli(capsys, "--p", "3", "--ell", "5")
    assert code == 1
    report = json.loads(out)
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    assert not checks["brauer-decomposition-integrality"]
    assert not report["all_passed"]
    assert set(characters.brauer_decompositions(3, 5).values()) == {reason}


def test_build_howe_tables_marks_a_failed_brauer_solve(
        monkeypatch, capsys, tmp_path, fresh_brauer_cache):
    """Where a Brauer solve fails, the script prints - for the reduction,
    dim Theta(ss) and deficit of that row, and exits 1."""
    path = Path(__file__).resolve().parents[1] / "scripts/build_howe_tables.py"
    spec = importlib.util.spec_from_file_location("build_howe_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    real = characters.row_reduce

    def dropping(rows, *args):
        del rows[-1]
        return real(rows, *args)

    monkeypatch.setattr(characters, "row_reduce", dropping)
    text, matches = script.render(2, 3, 5)
    assert not matches
    assert "| - | - | - |" in text
    monkeypatch.setattr(sys, "argv", [str(path), "--outdir", str(tmp_path),
                                      "--params", "2,3,5"])
    assert script.main() == 1
    assert (tmp_path / "theta_n2_q3_ell5.md").read_text() == text
    assert "does not match" in capsys.readouterr().err


def test_a_dropped_brauer_irreducible_fails_the_square_check(
        rebind_everywhere, capsys, fresh_brauer_cache):
    real = characters.brauer_irreps
    rebind_everywhere(real, lambda q, ell: real(q, ell)[:-1])
    code, out = _verify_cli(capsys, "--p", "3", "--ell", "5")
    assert code == 1
    checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert not checks["brauer-table-square"]
    assert not checks["brauer-decomposition-integrality"]
    # the dropped irreducible is sigma1, whose restriction is then
    # outside the span of the four linear Brauer characters
    with pytest.raises(CharacterError, match="not in the Brauer span"):
        characters.brauer_decompose(3, 5, DihedralIrrep("two", 1, None))


def test_verifier_passes_characteristic_two():
    report = verify_all(2, 2, 1, 3)
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    # Legendre-symbol-based checks are not defined in characteristic 2
    assert "gauss-square" not in names


def test_report_markdown():
    report = verify_all(2, 2, 1, 3)
    md = cli.report_to_markdown(report)
    assert md.startswith("# Verification report")
    assert "All passed: yes" in md
