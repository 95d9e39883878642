"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from blt import altspace, bilinear, gf, graphs, harness  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent).tolist() == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [1, 5] and [3, 7] cover [1, 7]; [8, 12] is clipped to [8, 10]
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert tracing.self_times(start, end, parent).tolist() == pytest.approx([2.0, 4.0, 4.0, 4.0])


def test_every_binding_of_a_wrapped_function_is_wrapped():
    t = tracing.Tracer().install()
    try:
        assert t.uncovered_bindings() == []
        # the check itself must notice a binding it did not wrap
        gf._unwrapped_alias = t._originals["gf.rank_batched"]
        try:
            assert t.uncovered_bindings() == ["blt.gf._unwrapped_alias -> gf.rank_batched"]
        finally:
            del gf._unwrapped_alias
    finally:
        t.uninstall()


def test_traced_calls_reach_every_layer_and_uninstall_restores():
    originals = (altspace.rank_batched, bilinear.is_orth_decomposable, gf.rref)
    t = tracing.Tracer().install()
    try:
        assert altspace.rank_batched is not originals[0]
        sp = altspace.space_from_graph(graphs.cycle_graph(4), 3)
        bilinear.lambda_map(bilinear.map_from_space(sp))
        harness.compute_row(3, 0b011, harness.VerifyConfig(max_n=3, level="space"))
    finally:
        t.uninstall()
    assert (altspace.rank_batched, bilinear.is_orth_decomposable, gf.rref) == originals
    m = t.layer_metrics()
    for name in ("harness.compute_row", "bilinear.lambda_map", "bilinear.quotient_map",
                 "altspace.is_orth_decomposable", "gf.rank_batched", "gf.rref",
                 "graphs.vertex_connectivity"):
        assert m[f"{name}.calls"] > 0, name
        assert 0 <= m[f"{name}.self_s"] <= m[f"{name}.total_s"] + 1e-9, name
    assert m["gf.rank_batched.matrices"] > 0
    assert m["gf.rank_batched.bytes"] % 8 == 0
    assert 0 < m["altspace.is_orth_decomposable.hit_ratio"] <= 1
    # self times partition the outermost spans
    a = t.arrays()
    roots = a["parent"] < 0
    own = tracing.self_times(a["start"], a["end"], a["parent"])
    assert own.sum() == pytest.approx((a["end"] - a["start"])[roots].sum())


def test_one_raise_is_one_failed_instance():
    def boom():
        raise RuntimeError("injected")

    ok = workloads.Instance("ok", lambda: {"v": 1}, lambda ans: [])
    bad = workloads.Instance("bad", boom, lambda ans: [])
    wrong = workloads.Instance("wrong", lambda: {"v": 2}, lambda ans: [])
    out = worker.run_pass([ok, bad, wrong], seconds=60)
    rows, by_ref = worker.check_results(out["results"], {"wrong": {"v": 3}, "ok": {"v": 1}})
    assert [r[2] for r in rows] == [True, False, False]
    assert "injected" in rows[1][3] and "reference" in rows[2][3]
    assert by_ref == 2 and out["skipped"] == 0


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(1094)))[0] == "p99"
    assert run.tail(list(range(800)))[0] == "p98"
    assert run.tail(list(range(152)))[0] == "p90"
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)


def test_quantile_is_a_weighted_mean_of_order_statistics():
    assert run.quantile([2.0] * 7, 0.5) == pytest.approx(2.0)
    assert run.quantile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5) == pytest.approx(3.0)
    xs = list(range(1, 201))
    assert run.quantile(xs, 0.9) == pytest.approx(180.5, abs=1.0)
    assert run.quantile(xs, 0.5) < run.quantile(xs, 0.9) < run.quantile(xs, 0.98) < 200


def test_sweep_reference_matches_its_render_csv_digest():
    with open(workloads.reference_path("sweep-space-n5")) as fh:
        ref = json.load(fh)
    ids = [harness.graph_id(n, mask) for n, mask in harness.iter_tasks(workloads.SWEEP_CFG)]
    assert sorted(ref["answers"]) == sorted(ids) and len(ids) == 1094
    text = "\n".join([harness.csv_header()] + [ref["answers"][i] for i in ids]) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == ref["render_csv_sha256"]


def test_same_seed_same_inputs():
    for build in workloads.WORKLOADS.values():
        assert [i.key for i in build(3)] == [i.key for i in build(3)]
    a, b = workloads.space_n6(5)[0], workloads.space_n6(5)[0]
    assert a.run.args[0] == b.run.args[0]
