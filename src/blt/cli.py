"""Command-line surface: graph-conn, space, group, and verify subcommands.

Exit codes: 0 = success / all rows PASS, 1 = a verification failure,
2 = usage, parse, or guard errors, 3 = a sweep row raised (status ERROR;
the exception goes to stderr as "graph: Type: message").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import gf, harness
from .altspace import (
    AltMatrixSpace,
    GuardExceeded,
    delta_space,
    is_fully_connected,
    kappa_gt_lambda_instance,
    kappa_space,
    lambda_space,
    space_from_graph,
    space_from_json,
    space_to_json,
)
from .bilinear import map_from_space
from .gf import Subspace
from .graphs import (
    edge_connectivity,
    min_degree,
    parse_graph,
    vertex_connectivity,
)
from .group import (
    BaerGroup,
    baer_group,
    decomposition_factors,
    delta_group,
    format_element,
    group_from_graph,
    group_from_json,
    group_to_json,
    is_centrally_decomposable,
    kappa_group,
    lambda_group,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=1) + "\n"


def _subspace_payload(S: Subspace) -> dict:
    return {"dim": S.dim, "basis": [list(map(int, row)) for row in S.mat()]}


def _vec(v) -> list:
    return [int(x) for x in np.asarray(v).ravel()]


# ---------------------------------------------------------------------------
# Input loading: files are either edge lists or one of the JSON payloads


def _load_space(path: str, q: int) -> AltMatrixSpace:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return space_from_json(text)
    return space_from_graph(parse_graph(text), q)


def _load_group(path: str, p: int) -> BaerGroup:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return group_from_json(text)
    return group_from_graph(parse_graph(text), p)


# ---------------------------------------------------------------------------
# graph-conn


def cmd_graph_conn(args) -> int:
    g = parse_graph(_read_text(args.input))
    kappa, vcut = vertex_connectivity(g)
    lam, ecut = edge_connectivity(g)
    delta = min_degree(g)
    # the witnesses in the edge list's 1-indexed numbering
    sep = None if vcut is None else [v + 1 for v in sorted(vcut)]
    cut = [(i + 1, j + 1) for i, j in sorted(ecut)]
    if args.format == "text":
        lines = [
            f"n={g.n} m={len(g.edges)}",
            f"kappa  = {kappa}" + (f"  separator: {sep}" if sep else ""),
            f"lambda = {lam}" + (f"  edge cut: {cut}" if cut else ""),
            f"delta  = {delta}",
        ]
        _emit("\n".join(lines), args.out)
    else:
        payload = {
            "n": g.n,
            "m": len(g.edges),
            "kappa": kappa,
            "lambda": lam,
            "delta": delta,
            "witnesses": {
                "vertex_separator": sep,
                "edge_cut": [list(e) for e in cut],
            },
        }
        _emit(_json_dump(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# space


def cmd_space(args) -> int:
    if args.subcmd == "build":
        g = parse_graph(_read_text(args.input))
        sp = space_from_graph(g, args.q)
        _emit(space_to_json(sp), args.out)
        print(f"built {sp.dim} matrices of size {sp.n}x{sp.n} over F_{sp.q}", file=sys.stderr)
        return 0

    sp = _load_space(args.input, args.q)
    if args.subcmd == "kappa":
        value, W = kappa_space(sp, force=args.force)
        payload = {"kappa": value, "restriction": _subspace_payload(W)}
    elif args.subcmd == "lambda":
        res = lambda_space(sp, force=args.force)
        payload = {
            "lambda": res.value,
            "U": _subspace_payload(res.U),
            "V": _subspace_payload(res.V),
            "vanishing_dim": res.vanishing.dim,
        }
    elif args.subcmd == "delta":
        value, v = delta_space(sp, force=args.force)
        payload = {"delta": value, "vector": _vec(v)}
    elif args.subcmd == "fullconn":
        flag, pair = is_fully_connected(sp, force=args.force)
        payload = {"fully_connected": flag}
        if pair is not None:
            payload["disconnected_pair"] = [_vec(pair[0]), _vec(pair[1])]
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.subcmd)
    _emit(_json_dump(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# group


def cmd_group(args) -> int:
    if args.subcmd == "build":
        g = parse_graph(_read_text(args.input))
        P = group_from_graph(g, args.p)
        _emit(group_to_json(P), args.out)
        print(f"order {args.p}^{P.n + P.m} = {P.order}, class 2, exponent {args.p}", file=sys.stderr)
        return 0

    P = _load_group(args.input, args.p)
    if args.subcmd == "kappa":
        res = kappa_group(P, method=args.method, force=args.force)
        payload = {"kappa": res.value, "regular_subgroup_U": _subspace_payload(res.subgroup.U)}
        if res.pair is not None:
            payload["pair"] = [_subspace_payload(res.pair[0]), _subspace_payload(res.pair[1])]
    elif args.subcmd == "lambda":
        res = lambda_group(P, method=args.method, force=args.force)
        payload = {"lambda": res.value, "quotient_by_X": _subspace_payload(res.quotient_by.X)}
        if res.pair is not None:
            payload["pair"] = [_subspace_payload(res.pair[0]), _subspace_payload(res.pair[1])]
    elif args.subcmd == "delta":
        value, g_min = delta_group(P, force=args.force)
        payload = {"delta": value, "element": format_element(g_min)}
    elif args.subcmd == "decompose":
        dec, pair = is_centrally_decomposable(P, force=args.force)
        payload = {"decomposable": dec}
        if dec:
            J, K = decomposition_factors(P, pair)
            payload["U_J"] = _subspace_payload(pair[0])
            payload["U_K"] = _subspace_payload(pair[1])
            payload["factor_orders"] = [J.order(P.p), K.order(P.p)]
    else:  # pragma: no cover
        raise AssertionError(args.subcmd)
    _emit(_json_dump(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _write_reports(report: harness.VerifyReport, out: str | None):
    if not out:
        return
    csv_text = harness.render_csv(report)
    json_text = harness.render_json(report)
    path = Path(out)
    if path.suffix == ".csv":
        path.write_text(csv_text)
    elif path.suffix == ".json":
        path.write_text(json_text)
    else:
        path.with_suffix(".csv").write_text(csv_text)
        path.with_suffix(".json").write_text(json_text)


def cmd_verify(args) -> int:
    if args.counterexample:
        return _verify_counterexample(args)

    cfg = harness.VerifyConfig(
        max_n=args.max_n,
        q=args.q,
        p=args.p,
        level=args.level,
        force=args.force,
    )
    threads = _resolve_threads(args.threads)

    stream = sys.stdout
    if args.format == "text":
        print(harness.text_header(), file=stream)
        on_row = lambda row: print(harness.text_row(row), file=stream, flush=True)
    elif args.format == "csv":
        print(harness.csv_header(), file=stream)
        on_row = lambda row: print(harness.csv_row(row), file=stream, flush=True)
    else:  # json: rows stream as JSON lines, full document goes to --out
        on_row = lambda row: print(json.dumps(row), file=stream, flush=True)

    report = harness.run_verify(cfg, threads=threads, on_row=on_row)
    _write_reports(report, args.out)

    for gid, error in report.errors.items():
        print(f"error: {gid}: {error}", file=sys.stderr)
    s = report.summary
    print(
        f"{s['rows']} rows: {s['pass']} PASS, {s['fail']} FAIL, {s['error']} ERROR "
        f"({s['map_rows']} with map columns, {s['group_rows']} with group columns)",
        file=sys.stderr,
    )
    stage = ", ".join(f"{lv} {dt:.2f}s" for lv, dt in report.stage_seconds.items() if dt)
    print(f"wall {report.wall_seconds:.2f}s on {threads} worker(s); per stage: {stage}", file=sys.stderr)
    if s["error"]:
        return 3
    return 0 if report.all_pass else 1


def _verify_counterexample(args) -> int:
    """Check the fully-connected instance with kappa > lambda, then its group
    when n + m is within GROUP_GUARD_EXP (the sweep's rule) or --force."""
    s, t, q, force = args.s, args.t, args.q, args.force
    gf.check_guard("n", s + t, gf.GUARD_N, force)  # before the instance is built
    sp = kappa_gt_lambda_instance(s, t, q)
    full, _ = is_fully_connected(sp, force=force)
    kappa, _ = kappa_space(sp, force=force)
    lam = lambda_space(sp, force=force)
    payload = {
        "s": s,
        "t": t,
        "q": q,
        "n": sp.n,
        "m": sp.dim,
        "fully_connected": full,
        "kappa": kappa,
        "lambda": lam.value,
        "separation": bool(full and kappa > lam.value),
    }
    if args.p == args.q and sp.n + sp.dim > gf.GROUP_GUARD_EXP and not force:
        guard = f"n+m={sp.n + sp.dim} exceeds the brute-force guard GROUP_GUARD_EXP={gf.GROUP_GUARD_EXP}"
        print(f"group rung skipped: {guard}; pass --force to run it", file=sys.stderr)
    elif args.p == args.q:
        P = baer_group(map_from_space(sp), args.p)
        kg = kappa_group(P, force=force)
        lg = lambda_group(P, force=force)
        payload["group"] = {
            "order_exp": P.n + P.m,
            "kappa": kg.value,
            "lambda": lg.value,
            "separation": kg.value > lg.value,
        }
    _emit(_json_dump(payload), args.out)
    ok = payload["separation"] and payload.get("group", {}).get("separation", True)
    return 0 if ok else 1


def _resolve_threads(value: int | None) -> int:
    if value is not None:
        return max(1, value)
    env = os.environ.get("BLT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"BLT_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blt",
        description="Graphs, alternating matrix spaces, bilinear maps, and p-groups "
        "of class 2: build the chain and compute kappa / lambda / delta at any level.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, q=True, pp=False):
        if q:
            p.add_argument("--q", type=int, default=3, help="field modulus (odd prime)")
        if pp:
            p.add_argument("--p", type=int, default=3, help="group modulus (odd prime)")
        p.add_argument("--force", action="store_true", help="lift size guards")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    g = sub.add_parser("graph-conn", help="kappa/lambda/delta of a graph from an edge list")
    g.add_argument("input", help="edge-list file, or - for stdin")
    g.add_argument("--format", choices=("text", "json"), default="text")
    g.add_argument("--out")
    g.set_defaults(func=cmd_graph_conn)

    s = sub.add_parser("space", help="alternating matrix space operations")
    s.add_argument("subcmd", choices=("build", "kappa", "lambda", "delta", "fullconn"))
    s.add_argument("input", help="space JSON or edge-list file, or - for stdin")
    add_common(s)
    s.set_defaults(func=cmd_space)

    gr = sub.add_parser("group", help="p-group operations")
    gr.add_argument("subcmd", choices=("build", "kappa", "lambda", "delta", "decompose"))
    gr.add_argument("input", help="group JSON or edge-list file, or - for stdin")
    gr.add_argument("--method", choices=("structured", "fast"), default="structured")
    add_common(gr, q=False, pp=True)
    gr.set_defaults(func=cmd_group)

    v = sub.add_parser(
        "verify",
        help="sweep labeled graphs and verify the parameter chain",
        epilog="exit codes: 0 every row PASS, 1 some row FAIL, 2 unusable input or "
        "configuration, 3 some row raised (ERROR; the exception text goes to stderr)",
    )
    v.add_argument("--max-n", type=int, default=4, help="largest vertex count (2..6)")
    v.add_argument("--q", type=int, default=3)
    v.add_argument("--p", type=int, default=3)
    v.add_argument("--threads", type=int, default=None, help="worker count (default: BLT_THREADS or all cores)")
    v.add_argument("--level", choices=("graph", "space", "map", "group", "all"), default="all")
    v.add_argument("--format", choices=("text", "csv", "json"), default="text")
    v.add_argument("--force", action="store_true", help="lift per-level size guards")
    v.add_argument("--out", help="report path; bare names get both .csv and .json")
    v.add_argument("--counterexample", action="store_true", help="check the kappa > lambda instance instead of sweeping")
    v.add_argument("--s", type=int, default=2, help="counterexample row-block size")
    v.add_argument("--t", type=int, default=2, help="counterexample column-block size")
    v.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
