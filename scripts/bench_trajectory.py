#!/usr/bin/env python3
"""Run the perfbench workloads over several seeds and write BENCH_<label>.json.

For each seed 0..N-1 in turn, every chosen workload gets one end-to-end run,
`perfbench/run.py --trace 0`, so the workloads alternate and slow drift of
the machine spreads over all of them.  BENCH_<label>.json, written to the
current directory, holds for each workload and end-to-end metric the median,
the interquartile range and the values of the runs, whether every run was
correct, and the machine facts (core count, Python and numpy versions) with
the `git rev-parse HEAD` of the checkout, since timings only compare on one
machine and one commit.

    python3 scripts/bench_trajectory.py --label pr21 --seeds 10 --seconds 45
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep-space-n5", "space-n6", "chain-n4")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"bench_trajectory: {workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "iqr": q3 - q1, "values": values}
    return out


def git_head():
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--seeds", type=int, required=True, help="runs per workload, seeds 0..N-1")
    ap.add_argument("--seconds", type=float, required=True, help="perfbench --seconds of each run")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args()
    if args.seeds < 1 or args.seconds <= 0:
        ap.error("--seeds must be >= 1 and --seconds > 0")

    runs = {w: [] for w in args.workloads}
    for seed in range(args.seeds):
        for w in args.workloads:
            runs[w].append(run_once(w, seed, args.seconds))
    payload = {
        "label": args.label,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "commit": git_head(),
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
        "workloads": {
            w: {"correct": all(r["correct"] for r in rs), "metrics": summary(rs)} for w, rs in runs.items()
        },
    }
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
