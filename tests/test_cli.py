"""End-to-end checks of the command line, run in-process via main(argv)."""

import io
import json
import sys

import pytest

from blt import altspace, cli, group, harness
from blt.harness import VerifyConfig, VerifyReport

K2 = "2 1\n1 2\n"
P3 = "3 2\n1 2\n2 3\n"
K3 = "3 3\n1 2\n1 3\n2 3\n"
C4 = "4 4\n1 2\n2 3\n3 4\n1 4\n"
K4 = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
TWO_K2 = "4 2\n1 2\n3 4\n"
STAR7 = "7 6\n" + "".join(f"1 {i}\n" for i in range(2, 8))


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def put(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _started(*args, **kwargs):
    raise AssertionError("the scan ran past the guard")


# -- graph-conn --------------------------------------------------------------


def test_graph_conn_text(tmp_path, capsys):
    code, out, err = run(capsys, "graph-conn", put(tmp_path, "c4.edges", C4))
    assert code == 0
    assert "n=4 m=4" in out
    assert "kappa  = 2" in out
    assert "lambda = 2" in out
    assert "delta  = 2" in out


def test_graph_conn_json(tmp_path, capsys):
    code, out, _ = run(capsys, "graph-conn", put(tmp_path, "c4.edges", C4), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["kappa"], payload["lambda"], payload["delta"]) == (2, 2, 2)
    assert len(payload["witnesses"]["vertex_separator"]) == 2
    assert len(payload["witnesses"]["edge_cut"]) == 2


def test_graph_conn_json_complete_graph_has_no_separator(tmp_path, capsys):
    code, out, _ = run(capsys, "graph-conn", put(tmp_path, "k3.edges", K3), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] == 2
    assert payload["witnesses"]["vertex_separator"] is None


def test_graph_conn_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(P3))
    code, out, _ = run(capsys, "graph-conn", "-")
    assert code == 0
    assert "kappa  = 1" in out


def test_graph_conn_out_file(tmp_path, capsys):
    dest = tmp_path / "report.txt"
    code, out, _ = run(capsys, "graph-conn", put(tmp_path, "k2.edges", K2), "--out", str(dest))
    assert code == 0
    assert out == ""
    assert "kappa  = 1" in dest.read_text()


def test_graph_conn_parse_error(tmp_path, capsys):
    code, _, err = run(capsys, "graph-conn", put(tmp_path, "bad.edges", "not a graph\n"))
    assert code == 2
    assert err.startswith("error:")


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "graph-conn", str(tmp_path / "nope.edges"))
    assert code == 2
    assert err.startswith("error:")


# -- space -------------------------------------------------------------------


def test_space_build_then_kappa(tmp_path, capsys):
    dest = tmp_path / "c4_space.json"
    code, _, err = run(capsys, "space", "build", put(tmp_path, "c4.edges", C4), "--out", str(dest))
    assert code == 0
    assert "built 4 matrices of size 4x4 over F_3" in err

    code, out, _ = run(capsys, "space", "kappa", str(dest))
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] == 2
    assert payload["restriction"]["dim"] >= 1


def test_space_lambda_from_edge_list(tmp_path, capsys):
    code, out, _ = run(capsys, "space", "lambda", put(tmp_path, "p3.edges", P3))
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == 1
    assert payload["U"]["dim"] >= 1
    assert payload["V"]["dim"] >= 1


def test_space_delta(tmp_path, capsys):
    code, out, _ = run(capsys, "space", "delta", put(tmp_path, "c4.edges", C4))
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == 2
    assert len(payload["vector"]) == 4


def test_space_fullconn(tmp_path, capsys):
    code, out, _ = run(capsys, "space", "fullconn", put(tmp_path, "k4.edges", K4))
    assert json.loads(out)["fully_connected"] is True

    code, out, _ = run(capsys, "space", "fullconn", put(tmp_path, "p3.edges", P3))
    payload = json.loads(out)
    assert payload["fully_connected"] is False
    assert len(payload["disconnected_pair"]) == 2


def test_space_guard(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, "space", "kappa", put(tmp_path, "s7.edges", STAR7))
    assert code == 2
    assert "force" in err
    # n = 4 passes the n budget, but F_19^4 has 7240 lines
    src = put(tmp_path, "p4.edges", "4 3\n1 2\n2 3\n3 4\n")
    code, out, _ = run(capsys, "space", "kappa", src, "--q", "19", "--force")
    assert code == 0
    assert json.loads(out)["kappa"] == 1
    monkeypatch.setattr(altspace, "_dim_scan", _started)
    for subcmd in ("kappa", "lambda"):
        code, _, err = run(capsys, "space", subcmd, src, "--q", "19")
        assert code == 2
        assert "lines=7240" in err and "force" in err


@pytest.mark.parametrize("subcmd", ["delta", "fullconn"])
def test_space_lines_guard(tmp_path, capsys, subcmd):
    # the path on 9 vertices: (3^9 - 1)/2 = 9841 lines, past gf.LINES_GUARD
    src = put(tmp_path, "p9.edges", "9 8\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 9)))
    code, _, err = run(capsys, "space", subcmd, src)
    assert code == 2
    assert "lines=9841" in err and "force" in err
    code, out, _ = run(capsys, "space", subcmd, src, "--force")
    assert code == 0
    payload = json.loads(out)
    assert payload.get("delta", 1) == 1 and payload.get("fully_connected", False) is False


# -- group -------------------------------------------------------------------


def test_group_build_then_kappa(tmp_path, capsys):
    dest = tmp_path / "k2_group.json"
    code, _, err = run(capsys, "group", "build", put(tmp_path, "k2.edges", K2), "--out", str(dest))
    assert code == 0
    assert "order 3^3 = 27" in err

    code, out, _ = run(capsys, "group", "kappa", str(dest))
    assert code == 0
    assert json.loads(out)["kappa"] == 1


def test_group_lambda_and_delta(tmp_path, capsys):
    src = put(tmp_path, "k2.edges", K2)
    code, out, _ = run(capsys, "group", "lambda", src)
    assert json.loads(out)["lambda"] == 1
    code, out, _ = run(capsys, "group", "delta", src)
    payload = json.loads(out)
    assert payload["delta"] == 1
    assert ";" in payload["element"]


def test_group_decompose(tmp_path, capsys):
    code, out, _ = run(capsys, "group", "decompose", put(tmp_path, "2k2.edges", TWO_K2))
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposable"] is True
    assert sorted(payload["factor_orders"]) == [27, 27]

    code, out, _ = run(capsys, "group", "decompose", put(tmp_path, "k2.edges", K2))
    assert json.loads(out)["decomposable"] is False


def test_group_guard(tmp_path, capsys, monkeypatch):
    # C_4 gives order 3^8, past the structured-search guard
    code, _, err = run(capsys, "group", "kappa", put(tmp_path, "c4.edges", C4))
    assert code == 2
    assert "force" in err
    # the path on 7 vertices: m = 6 passes lambda_map's m budget, n = 7 does not
    monkeypatch.setattr(altspace, "_dim_scan", _started)
    src = put(tmp_path, "p7.edges", "7 6\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 7)))
    code, _, err = run(capsys, "group", "lambda", src, "--method", "fast")
    assert code == 2
    assert "n=7" in err and "force" in err


@pytest.mark.parametrize(
    "cmd,payload",
    [
        (("group", "kappa"), {"p": "3", "n": 2, "m": 1, "phi": [[[0, 1], [2, 0]]]}),
        (("group", "kappa"), {"p": 3, "n": "2", "m": 0, "phi": []}),
        (("space", "kappa"), {"q": 3, "n": 2, "matrices": [[[0, "1"], [2, 0]]]}),
    ],
    ids=["group-p-str", "group-n-str", "space-entry-str"],
)
def test_json_payload_with_bad_types_exits_2(tmp_path, capsys, cmd, payload):
    code, _, err = run(capsys, *cmd, put(tmp_path, "bad.json", json.dumps(payload)))
    assert code == 2
    assert err.startswith("error:")


# -- verify ------------------------------------------------------------------


def test_verify_smallest_sweep(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--max-n", "2", "--threads", "1")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 2  # header + the single 2-vertex graph
    assert lines[1].endswith("PASS")
    assert "1 rows: 1 PASS, 0 FAIL" in err


def test_verify_csv_stdout(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--level", "space",
                       "--format", "csv", "--threads", "1")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == harness.csv_header()
    assert len(lines) == 1 + 8
    assert lines[1] == "n2e00001,2,1,3,1,1,1,1,1,1,,,,,PASS"
    assert all(line.endswith("PASS") for line in lines[1:])


def test_verify_json_stream_and_report_files(tmp_path, capsys):
    dest = tmp_path / "report"
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--level", "space",
                       "--format", "json", "--threads", "1", "--out", str(dest))
    assert code == 0
    rows = [json.loads(line) for line in out.rstrip("\n").split("\n")]
    assert len(rows) == 8
    assert rows[0]["graph"] == "n2e00001"

    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["summary"]["rows"] == 8
    assert "threads" not in doc["config"]
    csv_lines = (tmp_path / "report.csv").read_text().rstrip("\n").split("\n")
    assert len(csv_lines) == 9


def test_verify_out_suffix_selects_format(tmp_path, capsys):
    dest = tmp_path / "only.csv"
    code, _, _ = run(capsys, "verify", "--max-n", "2", "--level", "space",
                     "--threads", "1", "--out", str(dest))
    assert code == 0
    assert dest.exists()
    assert not (tmp_path / "only.json").exists()


def test_verify_deterministic_across_thread_counts(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "verify", "--max-n", "3", "--level", "space", "--threads", "1", "--out", str(a))
    run(capsys, "verify", "--max-n", "3", "--level", "space", "--threads", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("BLT_THREADS", "2")
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--level", "graph")
    assert code == 0

    monkeypatch.setenv("BLT_THREADS", "abc")
    code, _, err = run(capsys, "verify", "--max-n", "2", "--level", "graph")
    assert code == 2
    assert "BLT_THREADS" in err


def test_verify_bad_max_n(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "9")
    assert code == 2
    assert "max_n" in err


def test_verify_refuses_a_sweep_past_the_lines_budget(capsys):
    # n = 4 at q = 19 has 7240 lines: refused before any row, not one ERROR row per graph
    code, out, err = run(capsys, "verify", "--q", "19", "--max-n", "4", "--threads", "1")
    assert code == 2
    assert out == ""
    assert "lines=7240" in err and "force" in err


def test_verify_refuses_a_sweep_past_the_level_budget(capsys):
    # n = 6 at q = 5 passes the lines budget, but its level 3 holds 2558556 solids
    code, out, err = run(capsys, "verify", "--q", "5", "--max-n", "6", "--level", "space", "--threads", "1")
    assert code == 2
    assert out == ""
    assert "subspaces=2558556" in err and "force" in err


def test_space_level_guard(tmp_path, capsys, monkeypatch):
    # P5 and an isolated vertex at q = 5: refused unforced; forced, kappa and
    # lambda are 0 at level 1 and never reach the solids
    src = put(tmp_path, "p5k1.edges", "6 4\n1 2\n2 3\n3 4\n4 5\n")
    for subcmd in ("kappa", "lambda"):
        code, out, _ = run(capsys, "space", subcmd, src, "--q", "5", "--force")
        assert code == 0
        assert json.loads(out)[subcmd] == 0
    monkeypatch.setattr(altspace, "_dim_scan", _started)
    for subcmd in ("kappa", "lambda"):
        code, _, err = run(capsys, "space", subcmd, src, "--q", "5")
        assert code == 2
        assert "subspaces=2558556" in err and "force" in err


def test_verify_exit_code_flips_on_fail(capsys, monkeypatch):
    # exit-code wiring only; rows here are fabricated, not computed
    cfg = VerifyConfig(max_n=2)
    row = {c: None for c in harness.COLUMNS}
    row.update(graph="n2e00001", n=2, m=1, q="3", status="FAIL")
    report = VerifyReport(cfg, [row], {lv: 0.0 for lv in harness.LEVELS}, 0.0)
    monkeypatch.setattr(harness, "run_verify", lambda cfg, threads=1, on_row=None: report)
    code, _, err = run(capsys, "verify", "--max-n", "2")
    assert code == 1
    assert "1 FAIL" in err


def test_verify_exit_code_3_on_a_raising_row(tmp_path, capsys, monkeypatch):
    real = harness.kappa_space

    def kappa_space(sp, **kwargs):
        if sp.n == 3 and sp.dim == 3:  # only the triangle n3e00007
            raise RuntimeError("boom")
        return real(sp, **kwargs)

    monkeypatch.setattr(harness, "kappa_space", kappa_space)
    dest = tmp_path / "report"
    code, out, err = run(capsys, "verify", "--max-n", "3", "--level", "space",
                         "--format", "csv", "--threads", "1", "--out", str(dest))
    assert code == 3
    assert "error: n3e00007: RuntimeError: boom" in err
    assert "8 rows: 7 PASS, 0 FAIL, 1 ERROR" in err
    assert out.rstrip("\n").split("\n")[-1] == "n3e00007,3,3,3,,,,,,,,,,,ERROR"
    assert "boom" not in out
    for suffix in (".csv", ".json"):
        assert "boom" not in (tmp_path / f"report{suffix}").read_text()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["summary"]["error"] == 1


def test_verify_counterexample(capsys):
    code, out, _ = run(capsys, "verify", "--counterexample", "--threads", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["fully_connected"] is True
    assert payload["kappa"] == 3
    assert payload["lambda"] == 2
    assert payload["separation"] is True
    assert payload["group"]["separation"] is True


def test_verify_counterexample_group_rung_runs_at_group_level(monkeypatch, capsys):
    # the fast route is commutator_map then the map searches: the map rung again
    def map_search(*args, **kwargs):
        raise AssertionError("the group rung ran a map search")

    monkeypatch.setattr(group, "kappa_map", map_search)
    monkeypatch.setattr(group, "lambda_map", map_search)
    code, out, _ = run(capsys, "verify", "--counterexample", "--threads", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"]["separation"] is True
    assert (payload["group"]["kappa"], payload["group"]["lambda"]) == (3, 2)


def test_unknown_command_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
