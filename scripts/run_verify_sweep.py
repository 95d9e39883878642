#!/usr/bin/env python3
"""Sweep all labeled graphs up to --max-n and verify the parameter chain.

Thin driver over blt.harness for batch runs; writes CSV + JSON reports
into --out-dir with self-describing names.  `blt verify` does the same
interactively.
"""

import argparse
import sys
import time
from pathlib import Path

from blt import harness


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--level", default="space",
                    choices=("graph", "space", "map", "group", "all"))
    ap.add_argument("--threads", type=int, default=8)
    ap.add_argument("--force", action="store_true")
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--quiet", action="store_true", help="suppress per-row output")
    args = ap.parse_args()

    cfg = harness.VerifyConfig(max_n=args.max_n, q=args.q, p=args.p,
                               level=args.level, force=args.force)
    total = harness.count_tasks(cfg)
    print(f"{total} graphs, level={args.level}, q={cfg.q_label}, "
          f"{args.threads} workers", file=sys.stderr)

    on_row = None
    if not args.quiet:
        print(harness.text_header())
        on_row = lambda row: print(harness.text_row(row), flush=True)

    t0 = time.perf_counter()
    report = harness.run_verify(cfg, threads=args.threads, on_row=on_row)
    dt = time.perf_counter() - t0

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"sweep_n{args.max_n}_q{cfg.q_label.replace('/', '-')}_{args.level}"
    (out / f"{stem}.csv").write_text(harness.render_csv(report))
    (out / f"{stem}.json").write_text(harness.render_json(report))

    for gid, error in report.errors.items():
        print(f"error: {gid}: {error}", file=sys.stderr)
    s = report.summary
    print(f"{s['rows']} rows: {s['pass']} PASS, {s['fail']} FAIL, "
          f"{s['error']} ERROR in {dt:.1f}s", file=sys.stderr)
    print(f"reports: {out / stem}.{{csv,json}}", file=sys.stderr)
    if s["error"]:
        return 3
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
