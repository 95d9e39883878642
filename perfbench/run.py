"""Benchmark of the blt toolkit: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep-space-n5 --seed 0 --seconds 45 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run measures the
end-to-end metrics: it times ``SETUP_RUNS`` fresh-interpreter set-ups and
reports their median as ``setup_s``, then runs one untraced pass.  With
``--trace 1`` it runs one untraced and one traced pass, each in a fresh
interpreter, and reports the per-layer metrics of the traced pass plus
``tracing_overhead_s``, the difference of the two passes' wall times; the
spans go to ``perfbench/out/``.  End-to-end numbers never come from a traced
pass.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``; the
line before it holds the run's details (seed, machine facts, the tail
percentile used and its sample count, instances checked against stored
answers, the first failures).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("sweep-space-n5", "space-n6", "chain-n4")
SETUP_RUNS = 7
RUN_LIMIT_S = 170  # the whole run, children included, ends within this
TAIL_PERCENTILES = (99, 98, 95, 90, 80, 75, 50)
STARTED = time.monotonic()


class BenchError(RuntimeError):
    pass


def worker(step: str, args, extra=()) -> dict:
    """Run one worker.py step to completion and return its JSON output."""
    cmd = [sys.executable, WORKER, step, "--workload", args.workload, "--seed", str(args.seed), *extra]
    left = RUN_LIMIT_S - (time.monotonic() - STARTED)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{step} step still running {RUN_LIMIT_S} s after the run began") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{step} step failed (exit {proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass over each
    1/n interval.  Instance costs are spread unevenly (milliseconds to
    seconds), so a single order statistic jumps whenever noise reorders two
    instances across a gap; the weighted mean does not.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64  # midpoint rule inside each interval
    t = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(w @ x / w.sum())


def tail(latencies):
    """(label, value): the highest percentile with at least ten samples
    beyond it, or the maximum when there are too few samples for any."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", quantile(latencies, p / 100)
    return "max", max(latencies)


def tally(passes) -> tuple:
    """(attempted, failed, failed instance rows).  An instance not started
    within --seconds counts as failed: a run cut short must not read as a
    faster one."""
    rows = [row for p in passes for row in p["instances"]]
    skipped = sum(p["skipped"] for p in passes)
    failures = [row for row in rows if not row[2]]
    return len(rows) + skipped, len(failures) + skipped, failures


def end_to_end(args) -> tuple:
    setups = [worker("setup", args)["setup_s"] for _ in range(SETUP_RUNS)]
    res = worker("pass", args, ["--seconds", str(args.seconds)])
    lat = [row[1] for row in res["instances"]]
    label, tail_value = tail(lat)
    attempted, failed, _ = tally([res])
    metrics = {
        "wall_s": (res["wall_s"], "s"),
        "inst_p50_s": (quantile(lat, 0.5), "s"),
        "inst_tail_s": (tail_value, "s"),
        "cpu_s": (res["cpu_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "pass_share": ((attempted - failed) / attempted, "share"),
    }
    details = {"tail_percentile": label, "tail_samples": len(lat), "setup_runs_s": setups}
    return [res], metrics, details


def traced(args) -> tuple:
    os.makedirs(OUT_DIR, exist_ok=True)
    sidecar = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.npz")
    seconds = ["--seconds", str(args.seconds)]
    plain = worker("pass", args, seconds)
    spans = worker("pass", args, seconds + ["--sidecar", sidecar])
    metrics = {name: (value, _layer_unit(name)) for name, value in spans["layers"].items()}
    metrics["tracing_overhead_s"] = (spans["wall_s"] - plain["wall_s"], "s")
    details = {"sidecar": os.path.relpath(sidecar, ROOT), "spans": spans["spans"],
               "untraced_wall_s": plain["wall_s"], "traced_wall_s": spans["wall_s"]}
    return [plain, spans], metrics, details


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "share"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "blt", "__init__.py")):
        print(f"perfbench: no blt sources under {ROOT}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        passes, metrics, details = (traced if args.trace else end_to_end)(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, failures = tally(passes)
    details.update(
        workload=args.workload, seed=args.seed, machine=passes[0]["machine"],
        skipped=sum(p["skipped"] for p in passes),
        checked_against_reference=sum(p["by_reference"] for p in passes),
        first_failures=[[key, note] for key, _, _, note in failures[:5]],
    )
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
