"""Smoke tests: the scripts under scripts/ run to completion and print what they promise."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args, cwd=ROOT):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_bench_trajectory_writes_medians_and_machine_facts(tmp_path):
    out = _run(str(ROOT / "scripts" / "bench_trajectory.py"), "--label", "smoke", "--seeds", "1",
               "--seconds", "2", "--workloads", "space-n6", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    payload = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert (payload["label"], payload["seeds"], list(payload["workloads"])) == ("smoke", 1, ["space-n6"])
    assert {"cores", "python", "numpy"} <= set(payload["machine"]) and "commit" in payload
    run = payload["workloads"]["space-n6"]
    assert run["correct"] is True
    wall = run["metrics"]["wall_s"]
    assert wall["median"] == wall["values"][0] > 0 and wall["iqr"] == 0
    assert {"inst_p50_s", "cpu_s", "peak_rss_mb", "setup_s", "pass_share"} <= set(run["metrics"])
