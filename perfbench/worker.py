"""One step of a benchmark run, in a fresh interpreter.

    python3 perfbench/worker.py setup --workload W --seed S
    python3 perfbench/worker.py pass --workload W --seed S --seconds T [--sidecar FILE]

``setup`` prints the seconds this interpreter spent importing ``blt`` and
building the workload's inputs.  ``pass`` builds the inputs, runs the
instances in order with one caller (closed loop) until the list ends or T
seconds have passed, then checks every answer and prints one JSON object.
With ``--sidecar`` the pass is traced: spans go to FILE and per-layer
metrics into the output.  ``run.py`` starts these; each pass runs in its own
interpreter so that every pass starts with cold library caches.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_pass(instances, seconds: float, tracer=None) -> dict:
    """Time each instance; one raise is one failed instance, not a lost run."""
    perf = time.perf_counter
    results = []  # (instance, seconds, answer, error)
    if tracer is not None:
        tracer.install()
    cpu0 = _cpu_seconds()
    t_start = perf()
    try:
        for inst in instances:
            if perf() - t_start >= seconds:
                break
            t0 = perf()
            try:
                answer, error = inst.run(), None
            except Exception as exc:  # the instance failed; the run goes on
                answer, error = None, f"{type(exc).__name__}: {exc}"
            results.append((inst, perf() - t0, answer, error))
    finally:
        wall = perf() - t_start
        cpu = _cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
    return {"results": results, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "skipped": len(instances) - len(results)}


def check_results(results, reference: dict):
    """Per instance (key, seconds, ok, note), plus how many had a stored answer."""
    rows, by_reference = [], 0
    for inst, seconds, answer, error in results:
        problems = [error] if error else []
        if not error:
            answer = workloads.normalize(answer)
            try:
                problems += inst.check(answer)
            except Exception as exc:
                problems.append(f"check raised {type(exc).__name__}: {exc}")
            if inst.key in reference:
                by_reference += 1
                if answer != reference[inst.key]:
                    problems.append("differs from the stored reference answer")
        rows.append([inst.key, seconds, not problems, "; ".join(problems)])
    return rows, by_reference


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("step", choices=("setup", "pass"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float("inf"))
    ap.add_argument("--sidecar")
    args = ap.parse_args(argv)

    instances = workloads.WORKLOADS[args.workload](args.seed)
    if args.step == "setup":
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    tracer = Tracer() if args.sidecar else None
    out = run_pass(instances, args.seconds, tracer)
    rows, by_reference = check_results(out.pop("results"), workloads.load_reference(args.workload))
    out.update(instances=rows, by_reference=by_reference, machine={
        "cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__})
    if tracer is not None:
        tracer.write_sidecar(args.sidecar)
        out["layers"] = tracer.layer_metrics()
        out["spans"] = len(tracer.start)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
