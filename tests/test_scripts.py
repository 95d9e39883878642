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


def test_bench_trajectory_against_a_checkout_interleaves_and_counts_wins(tmp_path):
    out = _run(str(ROOT / "scripts" / "bench_trajectory.py"), "--label", "pair", "--seeds", "2",
               "--seconds", "2", "--workloads", "space-n6", "--against", str(ROOT), cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    payload = json.loads((tmp_path / "BENCH_pair.json").read_text())
    assert payload["first"] == ["change", "against"]  # the order flips every seed
    assert payload["against"]["commit"] == payload["commit"]
    change, against = payload["workloads"]["space-n6"], payload["against"]["workloads"]["space-n6"]
    assert change["correct"] is True and against["correct"] is True
    assert len(change["metrics"]["wall_s"]["values"]) == len(against["metrics"]["wall_s"]["values"]) == 2
    wins = payload["change_wins"]["space-n6"]
    assert set(wins) == set(change["metrics"]) and all(0 <= k <= 2 for k in wins.values())
    assert wins["pass_share"] == 0  # equal shares are no win
    bad = _run(str(ROOT / "scripts" / "bench_trajectory.py"), "--label", "bad", "--seeds", "1",
               "--seconds", "2", "--against", str(tmp_path), cwd=tmp_path)
    assert bad.returncode == 2 and "no perfbench/run.py" in bad.stderr
