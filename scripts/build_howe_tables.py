#!/usr/bin/env python3
"""Emit the theta correspondence tables and the semisimplification
comparison for a set of (n, q, ell) parameters.

Writes one markdown file per parameter triple into the output directory
(default: howe_tables/)."""

import argparse
import os

from ffverify import (compare_semisimplifications, markdown_table,
                      theta_mod_ell, theta_ordinary)

DEFAULT_PARAMS = [(2, 2, 3), (2, 3, 5), (2, 4, 5), (3, 2, 3)]


def render(n, q, ell):
    parts = [theta_ordinary(n, q).to_markdown(),
             theta_mod_ell(n, q, ell).to_markdown()]
    lines = ["# Semisimplification comparison", ""] + markdown_table(
        ("pi", "dim Theta(pi)", "reduction", "dim Theta(ss)", "deficit",
         "exceptional"),
        [(r["pi"], r["dim_theta_pi"],
          " + ".join(f"{m} x {lab}" for lab, m in r["reduction"]),
          r["dim_theta_ss"], r["deficit"], "yes" if r["exceptional"] else "no")
         for r in compare_semisimplifications(n, q, ell)])
    parts.append("\n".join(lines) + "\n")
    return "\n".join(parts)


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
    for n, q, ell in params:
        path = os.path.join(args.outdir, f"theta_n{n}_q{q}_ell{ell}.md")
        with open(path, "w") as fh:
            fh.write(render(n, q, ell))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
