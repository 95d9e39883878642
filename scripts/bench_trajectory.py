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

With `--against DIR`, every seed also runs DIR's own `perfbench/run.py` (DIR
is another checkout, say the parent commit) on the same workload right next
to this checkout's run, and the order of the two flips every seed, so drift
lands on both sides alike.  The file then also holds DIR's side and commit
under "against", the order of each seed under "first", and under
"change_wins" the number of seeds in which this checkout's value beats
DIR's on each metric, in the direction BENCHMARK.json gives for it.

    python3 scripts/bench_trajectory.py --label pr21 --seeds 10 --seconds 45
    python3 scripts/bench_trajectory.py --label pr26 --seeds 10 --seconds 45 --against ../parent
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


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"bench_trajectory: {root}: {workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "iqr": q3 - q1, "values": values}
    return out


def side(runs) -> dict:
    return {w: {"correct": all(r["correct"] for r in rs), "metrics": summary(rs)} for w, rs in runs.items()}


def change_wins(runs, against) -> dict:
    """Per workload and metric, the seeds in which runs beats against."""
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = {}
    for w, rs in runs.items():
        out[w] = {}
        for name in rs[0]["metrics"]:
            sign = 1 if better[name] == "lower" else -1
            pairs = zip(rs, against[w])
            out[w][name] = sum(sign * (a["metrics"][name]["value"] - r["metrics"][name]["value"]) > 0 for r, a in pairs)
    return out


def git_head(root: Path):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--seeds", type=int, required=True, help="runs per workload, seeds 0..N-1")
    ap.add_argument("--seconds", type=float, required=True, help="perfbench --seconds of each run")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--against", type=Path, help="another checkout, run seed by seed next to this one")
    args = ap.parse_args()
    if args.seeds < 1 or args.seconds <= 0:
        ap.error("--seeds must be >= 1 and --seconds > 0")
    if args.against is not None and not (args.against / "perfbench" / "run.py").is_file():
        ap.error(f"--against {args.against}: no perfbench/run.py there")

    sides = {"change": ROOT} if args.against is None else {"change": ROOT, "against": args.against.resolve()}
    runs = {name: {w: [] for w in args.workloads} for name in sides}
    first = []
    for seed in range(args.seeds):
        order = list(sides) if seed % 2 == 0 else list(sides)[::-1]
        first.append(order[0])
        for w in args.workloads:
            for name in order:
                runs[name][w].append(run_once(sides[name], w, seed, args.seconds))
    payload = {
        "label": args.label,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "commit": git_head(ROOT),
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
        "workloads": side(runs["change"]),
    }
    if args.against is not None:
        payload["against"] = {"commit": git_head(sides["against"]), "workloads": side(runs["against"])}
        payload["first"] = first
        payload["change_wins"] = change_wins(runs["change"], runs["against"])
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
