#!/usr/bin/env python3
"""Tabulate the exact interval energy of one polynomial family as H grows.

For a fixed degree and modulus, runs the one-seed sweep of those lengths
(energia.sweep.run_sweep), which draws one seeded monic polynomial per H,
and prints T alongside the two closed-form reference bounds, then the
sweep's log-log slopes overall and below the fourth-moment crossover.
"""
import argparse
import sys

from energia.bounds import fourth_moment_crossover
from energia.sweep import SweepConfig, run_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--m", type=int, default=100003)
    ap.add_argument("--lengths", default="4,8,16,32,64,128,256",
                    help="comma separated interval lengths")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--master", default="growth")
    args = ap.parse_args()

    lengths = tuple(int(v) for v in args.lengths.split(","))
    report = run_sweep(SweepConfig(degrees=(args.d,), moduli=(args.m,), lengths=lengths,
                                   seeds=(args.seed,), master=args.master))
    print(f"d = {args.d}, m = {args.m}, crossover H ~ {fourth_moment_crossover(args.d, args.m):.2f}")
    print(f"{'H':>5} {'T':>12} {'energy bd':>12} {'fourth bd':>12} "
          f"{'T/energy':>9} {'T/fourth':>9}")
    for c in report.cells:
        print(f"{c.H:>5} {c.T:>12} {c.bound_energy:>12.4g} {c.bound_fourth:>12.4g} "
              f"{c.ratio_energy:>9.3g} {c.ratio_fourth:>9.3g}")

    (slopes,) = report.slopes
    print()
    print(f"fitted slope, all H: {slopes.slope_all}")
    print(f"fitted slope, H below crossover: {slopes.slope_small}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
