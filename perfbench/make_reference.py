"""Write the stored reference answers in perfbench/reference/.

    python3 perfbench/make_reference.py [--seeds 0-9] [workload ...]

Run it only at a commit whose answers are known good: every answer is
cross-checked before it is stored, and a later run of the benchmark fails
any instance whose answer differs from the stored one, byte for byte.

- sweep-space-n5: every row of the full n<=5 space-level sweep as
  ``harness.csv_row`` renders it (the rows do not depend on the seed), plus
  the sha256 of ``harness.render_csv`` for the whole sweep.
- space-n6 and chain-n4: the values and canonical witness bases of every
  instance for each listed seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from blt import harness  # noqa: E402

import workloads  # noqa: E402


def sweep_reference() -> dict:
    report = harness.run_verify(workloads.SWEEP_CFG, threads=1)
    if not report.all_pass:
        raise SystemExit("the sweep has failing rows; not storing them")
    text = harness.render_csv(report)
    return {
        "render_csv_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "answers": {r["graph"]: harness.csv_row(r) for r in report.rows},
    }


def instance_reference(workload: str, seeds) -> dict:
    answers = {}
    for seed in seeds:
        for inst in workloads.WORKLOADS[workload](seed):
            if inst.key in answers:
                continue
            answer = workloads.normalize(inst.run())
            problems = inst.check(answer)
            if problems:
                raise SystemExit(f"{workload} {inst.key}: {'; '.join(problems)}")
            answers[inst.key] = answer
    return {"seeds": list(seeds), "answers": answers}


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    ap.add_argument("workload", nargs="*", default=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in args.workload:
        ref = sweep_reference() if name == "sweep-space-n5" else instance_reference(name, args.seeds)
        answers = ref.pop("answers")
        lines = [f"{json.dumps(k)}: {json.dumps(answers[k], separators=(',', ':'))}"
                 for k in sorted(answers)]
        meta = "".join(f"{json.dumps(k)}: {json.dumps(v)},\n" for k, v in sorted(ref.items()))
        with open(workloads.reference_path(name), "w") as fh:
            fh.write("{\n" + meta + '"answers": {\n' + ",\n".join(lines) + "\n}}\n")
        print(f"{name}: {len(answers)} answers", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
