"""Command line interface.

Subcommands: count, verify, howe, gauss, fixed-points.  Output is
deterministic (byte-identical across runs for the same arguments).
Exit codes: 0 success, 1 verification failure, 2 usage or budget error,
3 internal error (an exception the tool does not expect).
Each cmd_* returns its exit code and its text; main writes the text to
stdout or to --output.
The environment variable FFVERIFY_OUTDIR sets the default directory for
--output paths that are not absolute.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# `import ffverify` registers each layer without running it; a layer
# runs when a name is first read from it, so names are read at call time
# (varieties.count_points), never imported by name.
from . import characters, cyclotomic, fields, fixed_points, howe, varieties


class UsageError(ValueError):
    pass


def _emit(args, text: str):
    if getattr(args, "output", None):
        path = args.output
        if not os.path.isabs(path):
            path = os.path.join(os.environ.get("FFVERIFY_OUTDIR", "."), path)
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {path}: "
                             f"{exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _check_n(n: int, base: int, exponent: int):
    """Reject --n before any work when base^exponent, a bound on the
    values the command prints, has more digits than str() converts."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    # base^exponent >= 2^((bits - 1) exponent), and 2^(4 digits) > 10^digits:
    # past that the power need not be built
    if digits and exponent > 0 and (
            (base.bit_length() - 1) * exponent >= 4 * digits
            or base ** exponent >= 10 ** digits):
        raise UsageError(f"--n {n} is too large for this q: the values "
                         f"printed would have more than {digits} digits")


def _usage(flags: str, check, *params):
    """check(*params); the ValueError it raises is a usage error that
    names flags."""
    try:
        return check(*params)
    except ValueError as exc:
        raise UsageError(f"{flags}: {exc}") from None


def _tower(args):
    """build_tower(--p, --e); a tower it cannot build is a usage error."""
    return _usage(f"--p {args.p} --e {args.e}", fields.build_tower, args.p,
                  args.e)


def _q(args, bound: int) -> int:
    """q = --p ^ --e, checked against bound without building a tower."""
    return _usage(f"--p {args.p} --e {args.e}", fields.prime_power, args.p,
                  args.e, bound)


def _theta_n(args):
    """The library's check of n >= 2, the domain of the theta
    dimensions, as a usage error before any tower or table."""
    _usage(f"--n {args.n}", characters.check_theta_n, args.n)


def _csv(header, rows) -> str:
    """CSV text: the header line and one line per row.  No field needs
    quoting: every value is a name, an int or a bool."""
    return "\n".join([",".join(header)]
                     + [",".join(map(str, row)) for row in rows]) + "\n"


def markdown_table(header, rows) -> list[str]:
    """The lines of a markdown table: the header, the rule and one line
    per row, each cell the str of its value.  The package's one writer
    of markdown table rows."""
    return (["| " + " | ".join(header) + " |",
             "| " + " | ".join(["---"] * len(header)) + " |"]
            + ["| " + " | ".join(map(str, row)) + " |" for row in rows])


def markdown(*blocks) -> str:
    """Markdown text: the blocks, each a list of lines, one blank line
    between two blocks, ending in a newline.  The package's one writer
    of markdown text."""
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


def _checks_markdown(checks) -> list[str]:
    """The lines of the markdown table of checks."""
    return markdown_table(("check", "expected", "actual", "pass"), [
        (c["name"], c["expected"], c["actual"], "yes" if c["pass"] else "no")
        for c in checks])


def report_to_markdown(report: dict) -> str:
    """The markdown of a howe.verify_all report."""
    return markdown(["# Verification report"],
                    [f"Parameters: {json.dumps(report['params'])}"],
                    _checks_markdown(report["checks"]),
                    [f"All passed: {'yes' if report['all_passed'] else 'no'}"])


def theta_blocks(table) -> tuple:
    """The markdown blocks of a howe.HoweTable: its title, its rows and
    its checks."""
    title = f"Theta table: n={table.n}, q={table.q}, mode={table.mode}"
    if table.ell is not None:
        title += f", ell={table.ell}"
    return ([f"# {title}"], markdown_table(
        ("tau", "dim(tau)", "dim(Theta(tau))", "status", "constituents"),
        [(e.tau.label(), e.tau.dim, e.dim, e.status,
          "; ".join(f"{lab} ({d})" for d, lab in e.constituents) or "-")
         for e in table.entries]), _checks_markdown(table.checks))


def cmd_count(args):
    if args.torsor and args.level != 2:
        raise UsageError("--torsor checks the count ratio q+1, which "
                         "holds over F_{q^2} only: use --level 2")
    ctx = _tower(args)
    # a count that grows with n is at most N^(2n+1), N = q^level (X')
    _check_n(args.n, ctx.q ** args.level, 2 * args.n + 1)
    kinds = ("Y", "Ytilde") if args.torsor else args.variety
    specs = [_usage(f"--n {args.n}", varieties.VarietySpec, kind, args.n)
             for kind in kinds]
    header = ("variety", "n", "level", "count")
    rows = [(spec.kind, args.n, args.level,
             varieties.count_points(ctx, spec, args.level, args.budget))
            for spec in specs]
    ok = True
    if args.torsor:
        base, cover = rows[0][3], rows[1][3]
        ok = base * (ctx.q + 1) == cover
        ratio = f"ratio = {cover}/{base} (q+1 = {ctx.q + 1})"
    if args.format == "json":
        out = [dict(zip(header, r)) for r in rows]
        if args.torsor:
            out = {"rows": out,
                   "ratio": (cover // base if base and cover % base == 0
                             else f"{cover}/{base}"),
                   "ratio_equals_q_plus_1": ok}
        text = _json_dumps(out)
    elif args.format == "md":
        # the ratio line is plain text: "# ratio" would be a heading
        text = markdown(markdown_table(header, rows),
                        *([[ratio]] if args.torsor else []))
    else:
        text = _csv(header, rows) + (f"# {ratio}\n" if args.torsor else "")
    return (0 if ok else 1), text


def cmd_verify(args):
    q = _q(args, fields.TowerContext.MAX_Q)
    # before any tower
    _usage(f"--ell {args.ell}", characters.ell_parts, q, args.ell)
    _check_n(args.n, q, 2 * args.n)
    _theta_n(args)
    report = howe.verify_all(args.n, args.p, args.e, args.ell)
    text = (report_to_markdown(report) if args.format == "md"
            else _json_dumps(report))
    return (0 if report["all_passed"] else 1), text


def cmd_howe(args):
    q = _q(args, howe.HOWE_MAX_Q)
    _check_n(args.n, q, 2 * args.n)
    if args.ell is not None:
        _usage(f"--ell {args.ell}", characters.ell_parts, q, args.ell)
    _theta_n(args)
    table = (howe.theta_ordinary(args.n, q) if args.ell is None
             else howe.theta_mod_ell(args.n, q, args.ell))
    text = (markdown(*theta_blocks(table)) if args.format == "md"
            else _json_dumps(table.to_json()))
    return (0 if all(c["pass"] for c in table.checks) else 1), text


def cmd_gauss(args):
    ctx = _tower(args)
    if ctx.p == 2:
        raise UsageError("quadratic Gauss sums need odd characteristic")
    m = cyclotomic.conductor(ctx)
    expected_sq = cyclotomic.gauss_square(ctx)
    sums = []
    for a in range(1, ctx.q):
        g = cyclotomic.gauss_sum(ctx, cyclotomic.AdditiveCharacter(ctx, a))
        sums.append({"a": a, "gauss": g.to_json(),
                     "square_identity": g * g == expected_sq})
    ok = all(row["square_identity"] for row in sums)
    if args.format == "md":
        text = markdown([f"# Gauss sums, q = {ctx.q}"], markdown_table(
            ("a", "G(psi_a)^2 = (-1|F_q) q"),
            [(row["a"], "yes" if row["square_identity"] else "no")
             for row in sums]))
    else:
        text = _json_dumps({"q": ctx.q, "conductor": m, "sums": sums,
                            "identity_holds": ok})
    return (0 if ok else 1), text


def cmd_fixed_points(args):
    ctx = _tower(args)
    q = ctx.q
    rows = [{
        "with_unipotent": with_u,
        "eta": eta,
        "zeta": zeta,
        "total": cell.total,
        "strata": cell.sigma_counts,
        "closed_form": cell.closed_form,
        "match": cell.matches,
    } for with_u in (True, False)
        for (eta, zeta), cell
        in fixed_points.fixed_point_grid(ctx, with_u).items()]
    all_ok = all(r["match"] for r in rows)
    if args.format == "csv":
        header = ("with_unipotent", "eta", "zeta", "total", "closed_form",
                  "match")
        text = _csv(header, [[r[k] for k in header] for r in rows])
    elif args.format == "md":
        text = markdown([f"# Fixed point grid, q = {q}"], markdown_table(
            ("u", "eta", "zeta", "total", "closed form", "match"),
            [(r["with_unipotent"], r["eta"], r["zeta"], r["total"],
              r["closed_form"], "yes" if r["match"] else "no") for r in rows]))
    else:
        text = _json_dumps({"q": q, "rows": rows, "all_match": all_ok})
    return (0 if all_ok else 1), text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffverify",
        description="Exact verification of finite-field point counts, "
                    "character identities and theta tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "md")):
        p.add_argument("--p", type=int, required=True, help="characteristic")
        p.add_argument("--e", type=int, default=1, help="q = p^e")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--output", help="write to file instead of stdout")

    pc = sub.add_parser("count", help="point counts over tower levels")
    common(pc, ("json", "csv", "md"))
    kinds = pc.add_mutually_exclusive_group()
    kinds.add_argument("--variety", nargs="+",
                       choices=varieties.VARIETY_KINDS, default=["Ytilde"])
    pc.add_argument("--n", type=int, default=1)
    pc.add_argument("--level", type=int, choices=(1, 2, 4), default=2)
    pc.add_argument("--budget", type=int, default=varieties.DEFAULT_BUDGET,
                    help="operation budget; with N = q^level = p^d a count "
                         "costs N to start, N per value distribution (2N "
                         "for the pairing one), N*d*p per spectrum and N "
                         "per product of spectra")
    kinds.add_argument("--torsor", action="store_true",
                       help="count the torsor pair (Y, Ytilde) and check "
                            "the ratio q+1")
    pc.set_defaults(func=cmd_count)

    pv = sub.add_parser("verify", help="run all identity checks")
    common(pv)
    pv.add_argument("--n", type=int, default=2)
    pv.add_argument("--ell", type=int, required=True)
    pv.set_defaults(func=cmd_verify)

    ph = sub.add_parser("howe", help="theta correspondence tables")
    common(ph)
    ph.add_argument("--n", type=int, default=2)
    ph.add_argument("--ell", type=int, default=None)
    ph.set_defaults(func=cmd_howe)

    pg = sub.add_parser("gauss", help="quadratic Gauss sums and identities")
    common(pg)
    pg.set_defaults(func=cmd_gauss)

    pf = sub.add_parser("fixed-points", help="surface fixed point grid")
    common(pf, ("json", "csv", "md"))
    pf.set_defaults(func=cmd_fixed_points)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, text = args.func(args)
        _emit(args, text)
        return code
    except (fields.BudgetExceededError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
