#!/usr/bin/env python3
"""Walk through the kappa > lambda separation instance.

For graphs, Whitney's chain kappa <= lambda <= delta never breaks.  For
alternating matrix spaces only the two delta bounds survive: this script
builds a space on n = s + t points that is fully connected (kappa = n - 1)
yet carries a low-dimensional vanishing cut (lambda = max(s, t)), then
pushes it through to the p-group where the same gap shows up again.
"""

import argparse
import sys

import numpy as np

from blt.altspace import (
    is_fully_connected,
    kappa_gt_lambda_instance,
    kappa_space,
    lambda_space,
)
from blt.bilinear import map_from_space
from blt.group import baer_group, kappa_group, lambda_group


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=int, default=2, help="top block size (>= 2)")
    ap.add_argument("--t", type=int, default=2, help="bottom block size (>= 2)")
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--skip-group", action="store_true",
                    help="stop after the matrix-space computation")
    args = ap.parse_args()

    sp = kappa_gt_lambda_instance(args.s, args.t, args.q)
    n, m = sp.n, sp.dim
    print(f"space: n = {n}, dim = {m}, q = {args.q}")
    print(f"basis matrix A_1 =\n{np.array(sp.tensor[0])}")

    full, _ = is_fully_connected(sp)
    kappa, _ = kappa_space(sp, force=True)
    lam = lambda_space(sp, force=True)
    print(f"\nfully connected: {full}  (so kappa must be n - 1 = {n - 1})")
    print(f"kappa  = {kappa}")
    print(f"lambda = {lam.value}  cut: U of dim {lam.U.dim}, V of dim {lam.V.dim}; "
          f"{lam.vanishing.dim} basis directions vanish on U x V")
    if not (full and kappa > lam.value):
        print("no separation at these parameters", file=sys.stderr)
        return 1

    if args.skip_group:
        return 0

    P = baer_group(map_from_space(sp), args.q)
    print(f"\ngroup image: order {args.q}^{P.n + P.m}")
    kg = kappa_group(P, force=True)
    lg = lambda_group(P, force=True)
    print(f"kappa  = {kg.value}")
    print(f"lambda = {lg.value}")
    verdict = "holds" if kg.value > lg.value else "is gone"
    print(f"\nkappa > lambda {verdict} in the group")
    return 0 if kg.value > lg.value else 1


if __name__ == "__main__":
    sys.exit(main())
