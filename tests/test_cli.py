"""Exit codes, output formats and determinism of the command line tool."""

import contextlib
import io
import json
import os
import time

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from ffverify import cli, varieties
from ffverify.cli import main
from ffverify.fields import build_tower, is_prime
from ffverify.varieties import VARIETY_KINDS


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_basic_csv(capsys):
    code, out, _ = run(capsys, ["count", "--p", "3", "--variety", "Ytilde",
                                "--n", "2", "--level", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "variety,n,level,count"
    assert lines[1].startswith("Ytilde,2,2,")


def test_count_invalid_variety_exits_2(capsys):
    code, _, _ = run(capsys, ["count", "--p", "3", "--variety", "bogus"])
    assert code == 2


def test_missing_required_flag_exits_2(capsys):
    code, _, _ = run(capsys, ["count"])
    assert code == 2


def test_count_torsor(capsys):
    code, out, _ = run(capsys, ["count", "--p", "3", "--torsor", "--n", "2",
                                "--level", "2"])
    assert code == 0
    blob = json.loads(out)
    assert blob["ratio_equals_q_plus_1"] is True
    assert blob["ratio"] == 4


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("base,cover", [(3, 7), (0, 7)])
def test_count_torsor_failed_ratio_is_an_exact_string(capsys, monkeypatch,
                                                      base, cover):
    monkeypatch.setattr(varieties, "count_points",
                        lambda ctx, spec, level, budget:
                        {"Y": base, "Ytilde": cover}[spec.kind])
    code, out, _ = run(capsys, ["count", "--p", "3", "--torsor", "--n", "2",
                                "--level", "2"])
    assert code == 1
    blob = json.loads(out, parse_constant=_reject_constant)
    assert blob["ratio"] == f"{cover}/{base}"
    assert blob["ratio_equals_q_plus_1"] is False


def test_count_torsor_md(capsys):
    """The table of count rows, then the ratio as plain text: a line
    starting with # would be a markdown heading."""
    code, out, _ = run(capsys, ["count", "--p", "3", "--torsor", "--n", "2",
                                "--level", "2", "--format", "md"])
    assert code == 0
    assert out == ("| variety | n | level | count |\n"
                   "| --- | --- | --- | --- |\n"
                   "| Y | 2 | 2 | 6 |\n"
                   "| Ytilde | 2 | 2 | 24 |\n"
                   "\n"
                   "ratio = 24/6 (q+1 = 4)\n")


@pytest.mark.parametrize("base,cover", [(3, 7), (0, 7)])
def test_count_torsor_failed_ratio_exits_1_in_md(capsys, monkeypatch,
                                                 base, cover):
    monkeypatch.setattr(varieties, "count_points",
                        lambda ctx, spec, level, budget:
                        {"Y": base, "Ytilde": cover}[spec.kind])
    code, out, _ = run(capsys, ["count", "--p", "3", "--torsor", "--n", "2",
                                "--level", "2", "--format", "md"])
    assert code == 1
    assert out.endswith(f"\n\nratio = {cover}/{base} (q+1 = 4)\n")


@pytest.mark.parametrize("command", [["verify", "--ell", "5"], ["howe"],
                                     ["gauss"]], ids=lambda c: c[0])
def test_format_lists_only_what_the_command_renders(capsys, command):
    code, out, err = run(capsys, [command[0], "--p", "3", "--format", "csv",
                                  *command[1:]])
    assert code == 2
    assert out == ""
    assert "error: argument --format" in err


@pytest.mark.parametrize("level", ["1", "4"])
def test_count_torsor_needs_level_two(capsys, level):
    code, out, err = run(capsys, ["count", "--p", "3", "--torsor", "--n", "2",
                                  "--level", level])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --torsor")
    assert "F_{q^2}" in err


def test_count_budget_exceeded_exits_2(capsys):
    code, _, err = run(capsys, ["count", "--p", "3", "--variety", "Ytilde",
                                "--n", "3", "--level", "4", "--budget", "10"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["count", "--p", "3", "--variety", "Ytilde", "--n", "100000", "--level", "2"],
    ["count", "--p", "2", "--e", "4", "--variety", "Xprime", "--n",
     str(10 ** 15), "--level", "4"],
    ["howe", "--p", "3", "--n", "100000"],
    ["verify", "--p", "3", "--n", "100000", "--ell", "5"],
], ids=["count", "count-huge", "howe", "verify"])
def test_an_unprintable_n_is_rejected_up_front(capsys, argv):
    # the largest value printed would pass Python's int-to-str digit limit
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--n" in err


@pytest.mark.parametrize("argv", [
    ["count", "--p", "3", "--variety", "Ytilde", "--n", "2", "--level", "2"],
    ["howe", "--p", "3", "--n", "2"],
    ["verify", "--p", "3", "--n", "2", "--ell", "5"],
], ids=["count", "howe", "verify"])
def test_a_small_n_still_runs(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 0 and out


@pytest.mark.parametrize("argv,least", [
    (["count", "--p", "3", "--n", "0"], 1),
    (["verify", "--p", "3", "--n", "0", "--ell", "5"], 2),
    (["howe", "--p", "3", "--n", "0"], 2),
], ids=["count", "verify", "howe"])
def test_an_n_below_its_least_is_a_usage_error_naming_n(capsys, argv, least):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: --n 0: n must be at least {least}\n"


def test_verify_pass(capsys):
    code, out, _ = run(capsys, ["verify", "--p", "2", "--n", "2", "--ell", "3"])
    assert code == 0
    blob = json.loads(out)
    assert blob["all_passed"] is True


def test_verify_ell_two_exits_2(capsys):
    code, _, err = run(capsys, ["verify", "--p", "3", "--n", "2", "--ell", "2"])
    assert code == 2
    assert "error" in err


def test_verify_ell_equal_p_exits_2(capsys):
    code, _, _ = run(capsys, ["verify", "--p", "3", "--n", "2", "--ell", "3"])
    assert code == 2


@pytest.mark.parametrize("command", ["howe", "verify"])
@pytest.mark.parametrize("ell", ["-1", "0", "1", "4", "9"])
def test_an_ell_that_is_not_an_odd_prime_is_rejected_up_front(capsys, command,
                                                              ell):
    # ell = 1 and -1 used to hang in ell_parts, ell = 0 to crash
    start = time.perf_counter()
    code, out, err = run(capsys, [command, "--p", "3", "--n", "2", "--ell", ell])
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err.startswith("error: --ell ")


@pytest.mark.parametrize("ell", ["2", "4"])
def test_verify_rejects_a_bad_ell_before_building_the_tower(
        capsys, rebind_everywhere, ell):
    """No tower is built before the --ell check, in the CLI or in any
    layer that binds build_tower (fields and howe among them)."""
    calls = []
    rebind_everywhere(build_tower,
                      lambda p, e: calls.append((p, e)) or build_tower(p, e))
    code, out, err = run(capsys, ["verify", "--p", "2", "--e", "4", "--n", "2",
                                  "--ell", ell])
    assert code == 2 and out == ""
    assert err.startswith("error: --ell ")
    assert calls == []


@pytest.mark.parametrize("kind", ["Xbar", "D"])
@pytest.mark.parametrize("n", ["0", "-5"])
def test_surface_kinds_reject_n_below_one(capsys, kind, n):
    code, out, err = run(capsys, ["count", "--p", "3", "--variety", kind,
                                  "--n", n, "--format", "csv"])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_howe_ordinary_json(capsys):
    code, out, _ = run(capsys, ["howe", "--p", "3", "--n", "2"])
    assert code == 0
    blob = json.loads(out)
    assert blob["params"]["mode"] == "ordinary"
    assert blob["entries"]


def test_howe_mod_ell_markdown(capsys):
    code, out, _ = run(capsys, ["howe", "--p", "2", "--n", "2", "--ell", "3",
                                "--format", "md"])
    assert code == 0
    assert out.startswith("# Theta table:")
    assert "nontrivial-extension" in out


def test_howe_bad_n_exits_2(capsys):
    code, _, _ = run(capsys, ["howe", "--p", "3", "--n", "1"])
    assert code == 2


@pytest.mark.parametrize("p,e", [("2", "13"), ("3", "8"), ("4099", "1"),
                                 ("2", str(10 ** 9))])
def test_howe_rejects_q_above_its_bound_up_front(capsys, p, e):
    """q = p^e above howe.HOWE_MAX_Q = 4096 is a usage error, raised
    before any table is built or p^e computed."""
    start = time.perf_counter()
    code, out, err = run(capsys, ["howe", "--p", p, "--e", e, "--n", "2"])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--e" in err


def test_howe_runs_at_its_bound(capsys):
    code, out, _ = run(capsys, ["howe", "--p", "2", "--e", "12", "--n", "2"])
    assert code == 0 and out


@pytest.mark.parametrize("p", ["6", "0", "4"])
def test_howe_rejects_a_non_prime_p(capsys, p):
    code, out, err = run(capsys, ["howe", "--p", p, "--n", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv,flag", [
    (["fixed-points", "--p", "2", "--e", "100000000"], "--e"),
    (["gauss", "--p", "1000000000000000003"], "--p"),
    (["count", "--p", "1000000000000000003", "--variety", "Ytilde"], "--p"),
    (["verify", "--p", "3", "--ell", "1000000000000000003"], "--ell"),
    (["howe", "--p", "3", "--ell", str(2 ** 32 + 15)], "--ell"),
], ids=["e", "gauss-p", "count-p", "verify-ell", "howe-ell"])
def test_a_huge_p_e_or_ell_is_rejected_up_front(capsys, argv, flag):
    """q = p^e is bounded before p^e is built or p tested for primality,
    and --ell before its trial division: each is a usage error naming
    the flag, with nothing on stdout."""
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err


def test_gauss(capsys):
    code, out, _ = run(capsys, ["gauss", "--p", "5"])
    assert code == 0
    blob = json.loads(out)
    assert blob["identity_holds"] is True
    assert len(blob["sums"]) == 4


def test_gauss_characteristic_two_exits_2(capsys):
    code, _, _ = run(capsys, ["gauss", "--p", "2"])
    assert code == 2


def test_fixed_points_csv(capsys):
    code, out, _ = run(capsys, ["fixed-points", "--p", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "with_unipotent,eta,zeta,total,closed_form,match"
    # both unipotent modes, all (eta, zeta) pairs
    assert len(lines) == 1 + 2 * 3 * 4


def test_output_is_deterministic(capsys):
    argv = ["howe", "--p", "2", "--n", "2", "--ell", "3"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv = ["fixed-points", "--p", "3", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_output_file_and_outdir_env(tmp_path, capsys, monkeypatch):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, ["howe", "--p", "3", "--n", "2",
                                "--output", str(target)])
    assert code == 0 and out == ""
    blob = json.loads(target.read_text())
    assert blob["params"]["q"] == 3
    # relative paths resolve against FFVERIFY_OUTDIR
    monkeypatch.setenv("FFVERIFY_OUTDIR", str(tmp_path))
    code, out, _ = run(capsys, ["gauss", "--p", "3", "--output", "g.json"])
    assert code == 0 and out == ""
    blob = json.loads((tmp_path / "g.json").read_text())
    assert blob["identity_holds"] is True


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "g.json"
    code, out, err = run(capsys, ["gauss", "--p", "3", "--output", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_gauss", crash)
    code, out, err = run(capsys, ["gauss", "--p", "5"])
    assert code == 3
    assert out == ""
    assert err == "internal error: boom\n"


def test_console_script_is_installed():
    import shutil
    exe = shutil.which("ffverify")
    if exe is None:
        pytest.skip("console script not on PATH")
    import subprocess
    proc = subprocess.run([exe, "count", "--p", "2", "--variety", "Ytilde",
                           "--n", "1", "--format", "csv"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Ytilde,1,2," in proc.stdout


def _value(good, rare=()):
    """An option value: mostly one of the good integers, else a rare
    one, 0, a negative integer or a string that is not an integer."""
    return st.sampled_from(good * 4 + rare + (0, -1, "x")).map(str)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["count", "howe", "gauss", "fixed-points",
                                    "verify"]))
    p, e = draw(_value((3, 5, 2), (4, 13, 17))), draw(_value((1,), (2, 3)))
    if p.lstrip("-").isdigit() and e.lstrip("-").isdigit():
        q_valid = is_prime(int(p)) and int(e) >= 1
        # keep q <= 5; every command but howe rejects q > 16 up front
        assume(not q_valid or int(p) ** int(e) <= 5
               or (command != "howe" and int(p) ** int(e) > 16))
    argv = [command, "--p", p, "--e", e]
    if command in ("count", "howe", "verify"):
        argv += ["--n", draw(_value((2, 3, 1), (10 ** 6,)))]
    if command in ("howe", "verify"):
        argv += ["--ell", draw(_value((5, 7, 3), (2, 9)))]
    if command == "count":
        argv += ["--variety", draw(st.sampled_from(VARIETY_KINDS + ("bogus",))),
                 "--level", draw(_value((1, 2, 4), (3,))),
                 "--budget", draw(_value((50_000_000,), (10 ** 3,)))]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_exit_codes_on_small_and_invalid_arguments(argv):
    """Exit 0, 1 or 2, never 3 (an internal error); a usage error
    (exit 2) prints nothing on stdout and an error: line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
        assert any("error: " in line for line in err.getvalue().splitlines()), argv
