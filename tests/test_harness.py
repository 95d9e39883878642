"""Sweep harness: row computation, guard policy, renderers, determinism."""

import json

import pytest

from blt import harness
from blt.gf import GuardExceeded
from blt.harness import (
    VerifyConfig,
    VerifyReport,
    compute_row,
    graph_id,
    iter_tasks,
    run_verify,
)


def test_config_validation():
    with pytest.raises(ValueError, match="max_n"):
        VerifyConfig(max_n=1)
    with pytest.raises(ValueError, match="max_n"):
        VerifyConfig(max_n=7)
    with pytest.raises(ValueError):
        VerifyConfig(q=4)
    with pytest.raises(ValueError, match="level"):
        VerifyConfig(level="matrices")


def test_config_refuses_a_sweep_past_the_lines_budget():
    # n = 4 at q = 19: (19^4 - 1)/18 = 7240 lines, past gf.LINES_GUARD
    with pytest.raises(GuardExceeded, match="lines=7240.*force"):
        VerifyConfig(max_n=4, q=19)
    with pytest.raises(GuardExceeded, match="lines=7240"):
        VerifyConfig(max_n=4, q=19, level="space")
    VerifyConfig(max_n=3, q=19, level="space")  # 381 lines
    VerifyConfig(max_n=4, q=19, level="graph")  # no space columns
    cfg = VerifyConfig(max_n=4, q=19, level="space", force=True)
    row, _ = compute_row(4, 1, cfg)
    assert row["status"] == "PASS" and row["lambda_A"] == 0


def test_config_refuses_a_sweep_past_the_level_budget():
    # n = 6 at q = 5: 3906 lines pass gf.LINES_GUARD, [6, 3]_5 = 2558556 solids do not
    with pytest.raises(GuardExceeded, match="subspaces=2558556.*force"):
        VerifyConfig(max_n=6, q=5, level="space")
    VerifyConfig(max_n=6, q=5, level="graph")  # no space columns
    VerifyConfig(max_n=6, q=5, level="space", force=True)
    VerifyConfig(max_n=5, q=7, level="space")  # [5, 2]_7 = 140050 planes pass


def test_config_depth_and_label():
    assert VerifyConfig(level="graph").depth == 0
    assert VerifyConfig(level="space").depth == 1
    assert VerifyConfig(level="map").depth == 2
    assert VerifyConfig(level="group").depth == 3
    assert VerifyConfig(level="all").depth == 3
    assert VerifyConfig().q_label == "3"
    assert VerifyConfig(q=5, p=3).q_label == "5/3"


def test_task_counts():
    for max_n, count in ((2, 1), (3, 8), (4, 71), (5, 1094)):
        tasks = list(iter_tasks(VerifyConfig(max_n=max_n)))
        assert len(tasks) == count
        assert len(set(tasks)) == len(tasks)


def test_graph_id_format():
    assert graph_id(4, 7) == "n4e00007"


def test_row_full_depth_single_edge():
    row, timings = compute_row(2, 1, VerifyConfig(max_n=2))
    assert row["graph"] == "n2e00001"
    assert (row["n"], row["m"], row["q"]) == (2, 1, "3")
    for col in ("kappa_G", "lambda_G", "delta_G", "kappa_A", "lambda_A",
                "delta_A", "kappa_phi", "lambda_phi", "kappa_P", "lambda_P"):
        assert row[col] == 1
    assert row["status"] == "PASS"
    assert set(timings) == {"graph", "space", "map", "group"}


def test_row_guards_skip_expensive_levels():
    # K_4: m = 6 exceeds the map guard, order 3^10 exceeds the group guard
    row, timings = compute_row(4, 63, VerifyConfig(max_n=4))
    assert row["kappa_phi"] is None and row["lambda_phi"] is None
    assert row["kappa_P"] is None and row["lambda_P"] is None
    assert "map" not in timings and "group" not in timings
    # graph and space agree, so the row still passes
    assert row["kappa_G"] == row["kappa_A"] == 3
    assert row["status"] == "PASS"


def test_row_depth_limits_columns():
    row, _ = compute_row(3, 7, VerifyConfig(max_n=3, level="graph"))
    assert row["kappa_G"] == 2
    assert row["kappa_A"] is None
    row, _ = compute_row(3, 7, VerifyConfig(max_n=3, level="space"))
    assert row["kappa_A"] == 2
    assert row["kappa_phi"] is None


def test_run_verify_order_and_callback():
    cfg = VerifyConfig(max_n=3, level="space")
    seen = []
    report = run_verify(cfg, threads=1, on_row=lambda r: seen.append(r["graph"]))
    assert seen == [r["graph"] for r in report.rows]
    assert seen == sorted(seen)
    assert report.summary == {"rows": 8, "pass": 8, "fail": 0, "error": 0, "map_rows": 0,
                              "group_rows": 0}
    assert report.all_pass


def test_run_verify_threads_agree():
    cfg = VerifyConfig(max_n=3, level="space")
    r1 = run_verify(cfg, threads=1)
    r2 = run_verify(cfg, threads=2)
    assert r1.rows == r2.rows
    assert harness.render_csv(r1) == harness.render_csv(r2)
    assert harness.render_json(r1) == harness.render_json(r2)


def test_renderers():
    cfg = VerifyConfig(max_n=2)
    report = run_verify(cfg, threads=1)
    csv_text = harness.render_csv(report)
    lines = csv_text.rstrip("\n").split("\n")
    assert lines[0] == ",".join(harness.COLUMNS)
    assert len(lines) == 2
    assert lines[1].count(",") == len(harness.COLUMNS) - 1

    doc = json.loads(harness.render_json(report))
    assert doc["columns"] == list(harness.COLUMNS)
    assert doc["config"] == {"max_n": 2, "q": 3, "p": 3, "level": "all",
                             "force": False}
    assert doc["rows"][0]["status"] == "PASS"
    assert doc["summary"] == {"rows": 1, "pass": 1, "fail": 0, "error": 0,
                              "map_rows": 1, "group_rows": 1}

    header = harness.text_header()
    body = harness.text_row(report.rows[0])
    assert header.split()[0] == "graph"
    assert body.split()[0] == "n2e00001"
    assert body.endswith("PASS")


def _kappa_space_raising_on_triangle(monkeypatch):
    real = harness.kappa_space

    def kappa_space(sp, **kwargs):
        if sp.n == 3 and sp.dim == 3:  # only the triangle n3e00007
            raise RuntimeError("boom")
        return real(sp, **kwargs)

    monkeypatch.setattr(harness, "kappa_space", kappa_space)


def test_raising_row_is_error_not_fail(monkeypatch):
    _kappa_space_raising_on_triangle(monkeypatch)
    report = run_verify(VerifyConfig(max_n=3, level="space"), threads=1)
    statuses = {r["graph"]: r["status"] for r in report.rows}
    assert statuses.pop("n3e00007") == "ERROR"
    assert set(statuses.values()) == {"PASS"}
    assert report.summary == {"rows": 8, "pass": 7, "fail": 0, "error": 1,
                              "map_rows": 0, "group_rows": 0}
    assert not report.all_pass
    assert report.errors == {"n3e00007": "RuntimeError: boom"}
    assert harness.csv_row(report.rows[-1]) == "n3e00007,3,3,3,,,,,,,,,,,ERROR"
    # the exception text stays out of the deterministic reports
    assert "boom" not in harness.render_csv(report)
    assert "boom" not in harness.render_json(report)


def test_summary_counts_guarded_columns():
    report = run_verify(VerifyConfig(max_n=4), threads=2)
    s = report.summary
    assert s["rows"] == 71
    assert s["fail"] == 0
    # every graph on <= 4 vertices has at most 6 edges; only m <= 4 gets map columns
    assert 0 < s["map_rows"] < 71
    assert 0 < s["group_rows"] < 71
