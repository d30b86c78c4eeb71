#!/usr/bin/env python3
"""Print the surface fixed point grid for a small prime power.

For every (eta, zeta) pair and both endomorphism variants the script
reports the enumerated fixed point total, the stratum breakdown and the
closed-form prediction.  With --blind it also re-counts each total by a
brute scan over the absolute coordinate field (small q only).
"""

import argparse

from ffverify import (BudgetExceededError, blind_fixed_point_count,
                      build_tower, fixed_point_grid)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--e", type=int, default=1)
    ap.add_argument("--blind", action="store_true",
                    help="also run the independent brute-force scan")
    args = ap.parse_args()

    ctx = build_tower(args.p, args.e)
    q = ctx.q
    print(f"q = {q}, coordinate field degree = {2 * args.e * args.p} over F_{args.p}")
    header = "u     eta  zeta  total  strata                     closed  match"
    print(header)
    print("-" * len(header))
    for with_u in (True, False):
        for (eta, zeta), cell in fixed_point_grid(ctx, with_u).items():
            match = "ok" if cell.matches else "MISMATCH"
            strata = ",".join(f"{k}={v}" for k, v in
                              sorted(cell.sigma_counts.items()))
            print(f"{str(with_u):5} {eta:4} {zeta:5} "
                  f"{cell.total:6} {strata:26} {cell.closed_form:>6}  {match}")
            if args.blind:
                try:
                    blind = blind_fixed_point_count(ctx, eta, zeta, with_u)
                    tag = "ok" if blind == cell.total else "MISMATCH"
                    print(f"      blind scan: {blind}  {tag}")
                except BudgetExceededError:
                    print("      blind scan: skipped (field too large)")


if __name__ == "__main__":
    main()
