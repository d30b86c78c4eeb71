"""Run ffverify over one small fixed matrix under sys.settrace, and print
the lines of src/ffverify that ran.

    python tests/trace_matrix.py OUTDIR

prints one JSON object {module file name: [line, ...]} and exits 0, or
exits 1 if a call of the matrix gave another exit code than the one it
is listed with.  The matrix is every subcommand and format at q = 2, 3,
4 and 5, with an ell that divides q + 1 and one that does not (no odd
ell divides 4), every variety kind at levels 1, 2 and 4, a count at
q = 4 and level 4, whose search for the degree-8 modulus rejects a
candidate in each branch of fields._is_irreducible, the torsor pair,
an --output into OUTDIR, the usage errors, the blind scan of
scripts/fixed_point_grid.py, build_howe_tables.render and
perfbench/libjob.run.  The scripts import their names from the package,
so they run its lazy lookup (ffverify.__getattr__).  tests/test_hygiene.py
runs it in a fresh interpreter, as the towers and lru_caches that an
earlier call filled would hide the statements that build them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ffverify"
KINDS = ("S Y Ytilde X Sprime Yprime Ytildeprime Xprime Xbar D Zprime "
         "Zprime0 Uprime").split()


def trace_lines(directory: Path, run) -> dict:
    """Call run() under sys.settrace and return {file name: set of
    lines} for the lines that ran in the files directly in directory."""
    prefix = str(directory) + os.sep
    ran, tracers = {}, {}

    def tracer(path):
        lines = ran.setdefault(Path(path).name, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix) or os.sep in path[len(prefix):]:
            return None
        if path not in tracers:
            tracers[path] = tracer(path)
        return tracers[path]

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return ran


def cli_matrix(outdir: str) -> list:
    """(argv, exit code) of each CLI call of the matrix."""
    out = []
    for p, e, ells in ((2, 1, (3, 5)), (3, 1, (5,)), (2, 2, (5, 3)),
                       (5, 1, (3, 7))):
        q = ["--p", str(p), "--e", str(e)]
        for fmt in ("json", "md"):
            out += [(["verify", *q, "--ell", str(ell), "--format", fmt], 0)
                    for ell in ells]
            out += [(["howe", *q, "--format", fmt], 0),
                    (["howe", *q, "--ell", str(ells[0]), "--format", fmt], 0)]
            if p != 2:
                out.append((["gauss", *q, "--format", fmt], 0))
        out += [(["fixed-points", *q, "--format", fmt], 0)
                for fmt in ("json", "csv", "md")]
    for level in (1, 2, 4):
        out.append((["count", "--p", "2", "--variety", *KINDS, "--n", "2",
                     "--level", str(level), "--format", "csv"], 0))
    out += [(["count", "--p", "3", "--variety", *KINDS, "--level", "1",
              "--format", "json"], 0),
            (["count", "--p", "2", "--e", "2", "--level", "4"], 0)]
    out += [(["count", "--p", "3", "--torsor", "--n", "2", "--format", fmt], 0)
            for fmt in ("json", "csv", "md")]
    out += [
        (["fixed-points", "--p", "3", "--format", "csv", "--output",
          "grid.csv"], 0),
        (["fixed-points", "--p", "3", "--output",
          os.path.join(outdir, "missing", "grid.json")], 2),
        (["count"], 2),
        (["count", "--p", "3", "--torsor", "--level", "1"], 2),
        (["count", "--p", "2", "--n", "100000"], 2),
        (["count", "--p", "2", "--e", "2", "--level", "4", "--budget", "10"], 2),
        (["count", "--p", "4"], 2),
        (["count", "--p", "2", "--e", "0"], 2),
        (["count", "--p", "17"], 2),
        (["count", "--p", "1"], 2),
        (["count", "--p", "3", "--n", "0"], 2),
        (["verify", "--p", "3", "--n", "0", "--ell", "5"], 2),
        (["howe", "--p", "3", "--n", "0"], 2),
        (["verify", "--p", "3", "--ell", "2"], 2),
        (["verify", "--p", "3", "--ell", "25"], 2),
        (["howe", "--p", "2", "--e", "13"], 2),
        (["howe", "--p", "4"], 2),
        (["gauss", "--p", "2"], 2),
    ]
    return out


def run_matrix(outdir: str) -> list:
    """Run the matrix; the calls whose exit code is not the listed one."""
    from ffverify.cli import main
    wrong = []
    sink = io.StringIO()
    os.environ["FFVERIFY_OUTDIR"] = outdir
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv, code in cli_matrix(outdir):
            got = main(argv)
            if got != code:
                wrong.append(f"{' '.join(argv)}: exit {got}, not {code}")
        argv = sys.argv
        sys.argv = ["fixed_point_grid.py", "--p", "2", "--blind"]
        try:
            runpy.run_path(str(ROOT / "scripts" / "fixed_point_grid.py"),
                           run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                wrong.append(f"fixed_point_grid.py --p 2 --blind: "
                             f"exit {exc.code}")
        finally:
            sys.argv = argv
        render = runpy.run_path(str(ROOT / "scripts" / "build_howe_tables.py"))
        if not render["render"](2, 4, 5)[1]:
            wrong.append("build_howe_tables.render(2, 4, 5): a deficit")
        libjob = runpy.run_path(str(ROOT / "perfbench" / "libjob.py"))
        if not all(libjob["run"](2, 4, 5)["flags"].values()):
            wrong.append("libjob.run(2, 4, 5): a flag is false")
    return wrong


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    wrong = []
    ran = trace_lines(PACKAGE, lambda: wrong.extend(run_matrix(sys.argv[1])))
    if wrong:
        sys.stderr.write("\n".join(wrong) + "\n")
        return 1
    sys.stdout.write(json.dumps({name: sorted(lines)
                                 for name, lines in sorted(ran.items())}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
