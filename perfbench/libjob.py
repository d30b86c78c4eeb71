"""Library job: the character section of `verify_all`, through public
functions, for one (n, q, ell).

    python perfbench/libjob.py --n 2 --q 11 --ell 5

Prints one JSON object: boolean `flags` (orthogonality, table shape,
theta checks, deficit pattern), which must all be true, and the values
they were decided from (theta dimensions, Brauer reductions, deficits).
Functions are looked up on their modules at call time so that the
traced run sees the calls.
"""

from __future__ import annotations

import argparse
import json
import sys

from ffverify import characters, howe


def run(n: int, q: int, ell: int) -> dict:
    flags = {}
    tab = characters.o_minus_table(q, "ordinary")
    flags["ordinary-row-orthogonality"] = tab.row_orthogonality_ok()
    flags["ordinary-column-orthogonality"] = tab.column_orthogonality_ok()
    flags["ordinary-class-count"] = len(tab.classes) == len(tab.irreps)

    mt = characters.o_minus_table(q, "mod-ell", ell)
    flags["brauer-table-square"] = len(mt.classes) == len(mt.irreps)
    reductions = {}
    for pi in characters.ordinary_irreps(q):
        decomp = characters.brauer_decompose(q, ell, pi)
        reductions[pi.label()] = [[tau.label(), mult] for tau, mult in decomp]

    theta = {}
    for table in (howe.theta_ordinary(n, q), howe.theta_mod_ell(n, q, ell)):
        theta[table.mode] = {e.tau.label(): [e.dim, e.status]
                             for e in table.entries}
        for c in table.checks:
            flags[f"theta-{table.mode}:{c['name']}"] = c["pass"]

    deficits = {}
    for row in howe.compare_semisimplifications(n, q, ell):
        deficits[row["pi"]] = row["deficit"]
        flags[f"deficit:{row['pi']}"] = row["deficit_matches"]

    return {"flags": flags, "reductions": reductions, "theta": theta,
            "deficits": deficits}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--ell", type=int, required=True)
    args = parser.parse_args(argv)
    result = run(args.n, args.q, args.ell)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0 if all(result["flags"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
