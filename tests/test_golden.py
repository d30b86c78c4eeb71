"""Byte-identical stdout for a fixed matrix of CLI and script calls.

The files under `tests/golden/` pin the exact output, and
`tests/golden/howe_tables/` the files that `build_howe_tables.py`
writes by default; a refactor that changes a single byte of it fails
here.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from ffverify import build_tower, fixed_points
from ffverify.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
ALL_KINDS = ("S Y Ytilde X Sprime Yprime Ytildeprime Xprime Xbar D Zprime "
             "Zprime0 Uprime").split()

CLI_CASES = [
    ("fixed-points_p3.json", ["fixed-points", "--p", "3", "--format", "json"]),
    ("fixed-points_p3.csv", ["fixed-points", "--p", "3", "--format", "csv"]),
    ("fixed-points_p3.md", ["fixed-points", "--p", "3", "--format", "md"]),
    ("fixed-points_p2.json", ["fixed-points", "--p", "2", "--format", "json"]),
    # the benchmark's own fixed-points job, and a larger odd q
    ("fixed-points_p5.json", ["fixed-points", "--p", "5", "--format", "json"]),
    ("fixed-points_p7.csv", ["fixed-points", "--p", "7", "--format", "csv"]),
    # e > 1: the embedding of F_q in F_{q^2} is not the identity
    ("fixed-points_p2_e2.csv",
     ["fixed-points", "--p", "2", "--e", "2", "--format", "csv"]),
    ("verify_p3_n2_ell5.json",
     ["verify", "--p", "3", "--n", "2", "--ell", "5", "--format", "json"]),
    ("verify_p3_n2_ell5.md",
     ["verify", "--p", "3", "--n", "2", "--ell", "5", "--format", "md"]),
    # ell divides q + 1: the exceptional deficit family is nonempty
    ("verify_p2_e2_n2_ell5.json",
     ["verify", "--p", "2", "--e", "2", "--n", "2", "--ell", "5",
      "--format", "json"]),
    ("verify_p5_n2_ell3.json",
     ["verify", "--p", "5", "--n", "2", "--ell", "3", "--format", "json"]),
    # the Brauer solve inverts an irrational pivot: the general path of
    # CycNumber.inverse
    ("verify_p2_e2_n2_ell3.json",
     ["verify", "--p", "2", "--e", "2", "--n", "2", "--ell", "3",
      "--format", "json"]),
    ("count_p3_n2_level2.csv",
     ["count", "--p", "3", "--variety", "Ytilde", "X", "S", "Y", "--n", "2",
      "--level", "2", "--format", "csv"]),
    ("count_p3_torsor_n2_level2.csv",
     ["count", "--p", "3", "--torsor", "--n", "2", "--level", "2",
      "--format", "csv"]),
    ("count_p3_torsor_n2_level2.json",
     ["count", "--p", "3", "--torsor", "--n", "2", "--level", "2",
      "--format", "json"]),
    # the ratio line follows the markdown table
    ("count_p3_torsor_n2_level2.md",
     ["count", "--p", "3", "--torsor", "--n", "2", "--level", "2",
      "--format", "md"]),
    ("count_p3_n2_level2.json",
     ["count", "--p", "3", "--variety", "Ytilde", "X", "S", "Y", "--n", "2",
      "--level", "2", "--format", "json"]),
    ("count_p3_e2_all_n2_level2.csv",
     ["count", "--p", "3", "--e", "2", "--variety", *ALL_KINDS, "--n", "2",
      "--level", "2", "--format", "csv"]),
    ("count_p2_e2_all_n2_level4.csv",
     ["count", "--p", "2", "--e", "2", "--variety", *ALL_KINDS, "--n", "2",
      "--level", "4", "--format", "csv"]),
    ("count_p5_all_n2_level4.csv",
     ["count", "--p", "5", "--variety", *ALL_KINDS, "--n", "2",
      "--level", "4", "--format", "csv"]),
    ("howe_p5_n2_ell3.md",
     ["howe", "--p", "5", "--n", "2", "--ell", "3", "--format", "md"]),
    # ell = 3 divides q + 1 = 6: the table has the extension row
    ("howe_p5_n2_ell3.json",
     ["howe", "--p", "5", "--n", "2", "--ell", "3", "--format", "json"]),
    ("howe_p5_n2.json", ["howe", "--p", "5", "--n", "2", "--format", "json"]),
    ("howe_p5_n2.md", ["howe", "--p", "5", "--n", "2", "--format", "md"]),
    ("gauss_p5.json", ["gauss", "--p", "5", "--format", "json"]),
    ("gauss_p5.md", ["gauss", "--p", "5", "--format", "md"]),
]

SCRIPT_CASES = [
    ("fixed_point_grid_p3_blind.txt", ["--p", "3", "--blind"]),
    ("fixed_point_grid_p2.txt", ["--p", "2"]),
    # the blind model embeds a degree-4 modulus in F_{2^8}
    ("fixed_point_grid_p2_e2_blind.txt", ["--p", "2", "--e", "2", "--blind"]),
]


@pytest.mark.parametrize("name,argv", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_cli_stdout_matches_golden(name, argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_tower_table_keys_are_names_and_ints(capsys):
    """After the golden count and fixed-points argvs, every key of a
    tower's tables is a str, or a tuple of a str and ints: no table is
    keyed by data.  The names are those of the tables listed in
    TowerContext.table that the CLI reaches."""
    build_tower.cache_clear()
    towers = set()
    try:
        for _, argv in CLI_CASES:
            if argv[0] in ("count", "fixed-points"):
                assert main(argv) == 0
                e = int(argv[argv.index("--e") + 1]) if "--e" in argv else 1
                towers.add((int(argv[argv.index("--p") + 1]), e))
        keys = [key for p, e in sorted(towers)
                for key in build_tower(p, e)._tables]
    finally:
        build_tower.cache_clear()
    capsys.readouterr()
    assert all(isinstance(key, str) or (
        isinstance(key, tuple) and isinstance(key[0], str)
        and all(isinstance(k, int) for k in key[1:])) for key in keys), keys
    assert {key if isinstance(key, str) else key[0] for key in keys} == {
        "frobenius", "traces", "K", "root", "coset", "z sides", "boundary",
        "grid", "artin-schreier", "dist hermitian", "dist pair",
        "dist artin-schreier"}


@pytest.mark.parametrize("name,argv", SCRIPT_CASES,
                         ids=[c[0] for c in SCRIPT_CASES])
def test_fixed_point_grid_script_matches_golden(name, argv):
    proc = run_script("fixed_point_grid.py", argv)
    assert proc.stdout == (GOLDEN / name).read_text()


@pytest.mark.parametrize("argv", [["--p", "4"], ["--p", "2", "--e", "5"]],
                         ids=["p-not-prime", "q-above-bound"])
def test_fixed_point_grid_script_rejects_bad_input_as_the_cli_does(argv,
                                                                    capsys):
    """A p that is not prime or a q above the bound: no traceback, the
    CLI's usage error on stderr and exit 2."""
    proc = run_script("fixed_point_grid.py", argv, code=2)
    assert main(["fixed-points", *argv]) == 2
    assert (proc.stdout, proc.stderr) == ("", capsys.readouterr().err)
    assert proc.stderr.startswith("error: --p ")


@pytest.mark.parametrize("planted,argv", [
    ("closed_form_fixed_count", ["--p", "2"]),
    ("blind_fixed_point_count", ["--p", "2", "--blind"])],
    ids=["closed-form", "blind"])
def test_fixed_point_grid_script_exits_1_on_a_mismatch(planted, argv,
                                                       monkeypatch, capsys):
    """The closed form, or the blind count, planted one too high at
    q = 2: each of the 12 cells prints MISMATCH, and the script exits
    1."""
    real = getattr(fixed_points, planted)
    monkeypatch.setattr(fixed_points, planted,
                        lambda *args: real(*args) + 1)
    monkeypatch.setattr(sys, "argv", ["fixed_point_grid.py", *argv])
    build_tower.cache_clear()  # the grid and its closed forms are kept
    try:
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(ROOT / "scripts" / "fixed_point_grid.py"),
                           run_name="__main__")
    finally:
        build_tower.cache_clear()
    assert exc.value.code == 1
    assert capsys.readouterr().out.count("MISMATCH") == 12


@pytest.mark.parametrize("triple", ["2,6,5", "1,3,5", "2,3,3", "2,3", "2,3,x"])
def test_build_howe_tables_rejects_a_bad_triple_before_any_file(triple,
                                                                tmp_path):
    """A q that is not a prime power, n < 2, ell dividing q, two values
    or a value that is no int, after a good triple: one line on stderr,
    no traceback, exit 2 and no file written."""
    proc = run_script("build_howe_tables.py", [
        "--outdir", str(tmp_path), "--params", "2,3,5", triple], code=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: --params {triple}: ")
    assert proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_build_howe_tables_default_files_match_golden(tmp_path):
    """The script's default parameter set, file by file."""
    run_script("build_howe_tables.py", ["--outdir", str(tmp_path)])
    expected = sorted(p.name for p in (GOLDEN / "howe_tables").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert ((tmp_path / name).read_text()
                == (GOLDEN / "howe_tables" / name).read_text()), name


def run_script(name, argv, code=0):
    """Run scripts/<name> with src/ on the path; it must exit with code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)] + argv,
        capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    return proc
