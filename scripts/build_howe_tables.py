#!/usr/bin/env python3
"""Emit the theta correspondence tables and the semisimplification
comparison for a set of (n, q, ell) parameters.

Writes one markdown file per parameter triple into the output directory
(default: howe_tables/).  Exits 1 if a dimension deficit of any
comparison does not match its prediction, as where a Brauer solve
failed."""

import argparse
import os
import sys

from ffverify import (compare_semisimplifications, theta_mod_ell,
                      theta_ordinary)
from ffverify.cli import markdown, markdown_table, theta_blocks

DEFAULT_PARAMS = [(2, 2, 3), (2, 3, 5), (2, 4, 5), (3, 2, 3)]


def _reduction_cells(row):
    """The reduction, dim Theta(ss) and deficit of a comparison row;
    each is - where the Brauer solve failed."""
    if row["reduction"] is None:
        return "-", "-", "-"
    return (" + ".join(f"{m} x {lab}" for lab, m in row["reduction"]),
            row["dim_theta_ss"], row["deficit"])


def render(n, q, ell):
    """The markdown of one (n, q, ell), and whether every deficit of the
    comparison matches its prediction."""
    rows = compare_semisimplifications(n, q, ell)
    text = markdown(
        *theta_blocks(theta_ordinary(n, q)),
        *theta_blocks(theta_mod_ell(n, q, ell)),
        ["# Semisimplification comparison"], markdown_table(
            ("pi", "dim Theta(pi)", "reduction", "dim Theta(ss)", "deficit",
             "exceptional"),
            [(r["pi"], r["dim_theta_pi"], *_reduction_cells(r),
              "yes" if r["exceptional"] else "no") for r in rows]))
    return text, all(r["deficit_matches"] for r in rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="howe_tables")
    ap.add_argument("--params", nargs="*", metavar="n,q,ell",
                    help="triples like 2,3,5 (default: the built-in set)")
    args = ap.parse_args()

    params = DEFAULT_PARAMS
    if args.params:
        params = [tuple(int(x) for x in t.split(",")) for t in args.params]

    os.makedirs(args.outdir, exist_ok=True)
    code = 0
    for n, q, ell in params:
        path = os.path.join(args.outdir, f"theta_n{n}_q{q}_ell{ell}.md")
        text, matches = render(n, q, ell)
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
        if not matches:
            print(f"{path}: a deficit does not match its prediction",
                  file=sys.stderr)
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
