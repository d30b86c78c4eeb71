#!/usr/bin/env python3
"""Print the surface fixed point grid for a small prime power.

For every (eta, zeta) pair and both endomorphism variants the script
reports the enumerated fixed point total, the stratum breakdown and the
closed-form prediction.  With --blind it also re-counts each total by a
brute scan over the absolute coordinate field (small q only).  Exits 1
if a total differs from its closed form or from its blind count, as
the ffverify CLI does.  A p that is not prime, or q above the tower's
bound, is a usage error: the message on stderr and exit 2, as the CLI
gives.
"""

import argparse
import sys

from ffverify import (BudgetExceededError, FieldError, blind_fixed_point_count,
                      build_tower, fixed_point_grid)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--e", type=int, default=1)
    ap.add_argument("--blind", action="store_true",
                    help="also run the independent brute-force scan")
    args = ap.parse_args()

    try:
        ctx = build_tower(args.p, args.e)
    except FieldError as exc:
        sys.stderr.write(f"error: --p {args.p} --e {args.e}: {exc}\n")
        sys.exit(2)
    q = ctx.q
    print(f"q = {q}, coordinate field degree = {2 * args.e * args.p} over F_{args.p}")
    header = "u     eta  zeta  total  strata                     closed  match"
    print(header)
    print("-" * len(header))
    ok = True
    for with_u in (True, False):
        for (eta, zeta), cell in fixed_point_grid(ctx, with_u).items():
            ok = ok and cell.matches
            match = "ok" if cell.matches else "MISMATCH"
            strata = ",".join(f"{k}={v}" for k, v in
                              sorted(cell.sigma_counts.items()))
            print(f"{str(with_u):5} {eta:4} {zeta:5} "
                  f"{cell.total:6} {strata:26} {cell.closed_form:>6}  {match}")
            if args.blind:
                try:
                    blind = blind_fixed_point_count(ctx, eta, zeta, with_u)
                    ok = ok and blind == cell.total
                    tag = "ok" if blind == cell.total else "MISMATCH"
                    print(f"      blind scan: {blind}  {tag}")
                except BudgetExceededError:
                    print("      blind scan: skipped (field too large)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
