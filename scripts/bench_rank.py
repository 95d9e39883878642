#!/usr/bin/env python3
"""Time blt.gf.rank_batched on fixed stack shapes and print the result as JSON.

Each row is one (B, r, c) stack of seeded uniform residues mod q, ranked
--repeats times; the row reports the median wall time.  The first two shapes
are full chunks of the level scans of an n = 6 space with m = 15 at b = 3
under the scan budget altspace._CHUNK = 2^18 entries: the _level_bounds
flat stack (970 subspaces, 15 x 18, cap 8 = best + b(b-1)/2 at best 5),
which stands for the flat stacks that the counting bounds of the cascade
leave open (on K6 itself counting closes every U, so none is ranked), and
the _dim_scan r2 stack M_U B_U^t (970 subspaces, 45 x 3), ranked for the U
with r1 < n; r1 itself comes from altspace's orthogonality bit table, with
no elimination.  The next five are the per-layer shapes
of the roadmap.  The last two are the self-adjoint constraint stacks of
the literal oracles (altspace.first_decomposable) for a whole level at
w = 4: the 1210 quotients by 2-dim X of a 5-dim codomain at q = 3 (3
generators x 10 rows, 16 unknowns) and the 806 of a 4-dim codomain at
q = 5.  The JSON also holds the core count and the Python and numpy
versions, since timings only compare on one machine.

    PYTHONPATH=src python3 scripts/bench_rank.py --repeats 5
"""

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np

from blt import gf

# (B, r, c, q, cap)
SHAPES = (
    (970, 15, 18, 3, 8),
    (970, 45, 3, 3, None),
    (20000, 45, 6, 3, None),
    (100000, 12, 4, 3, None),
    (2000, 8, 8, 251, None),
    (20000, 6, 15, 3, None),
    (5000, 12, 12, 3, None),
    (1210, 30, 16, 3, None),
    (806, 20, 16, 5, None),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5, help="timed runs per shape (median reported)")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    rows = []
    for B, r, c, q, cap in SHAPES:
        mats = np.random.default_rng(0).integers(0, q, size=(B, r, c))
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            ranks = gf.rank_batched(mats, q, cap=cap)
            times.append(time.perf_counter() - t0)
        rows.append({
            "shape": [B, r, c],
            "q": q,
            "cap": cap,
            "median_s": round(statistics.median(times), 6),
            "rank_sum": int(ranks.sum()),
        })
    payload = {
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "repeats": args.repeats,
        "rows": rows,
    }
    print(json.dumps(payload, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
