"""Verification harness: sweep labeled graphs and check the parameter chain.

For every labeled graph on 2..max_n vertices with at least one edge, compute
kappa / lambda / delta at each level of the construction chain

    graph  ->  alternating matrix space  ->  bilinear map  ->  p-group

and record them side by side.  A row PASSes when the kappa values agree across
every computed level and the lambda values do too; delta columns are reported
for inspection but carry no cross-level claim.  A row whose computation
raises is reported as ERROR, with its parameter columns left empty; the
exception text is kept on the report, out of the rendered rows.

Map and group columns are guarded: the literal map-level searches enumerate
subspaces of the codomain, so they are computed only when m <= SWEEP_MAP_GUARD_M,
and the structured group-level searches only when the group order p^(n+m)
stays at or below p^GROUP_GUARD_EXP.  force=True lifts both guards but not
MAX_N_CAP.  All three are gf budget constants; GROUP_GUARD_EXP is also the
structured group searches' own guard.  A sweep with space columns whose
largest n has more than LINES_GUARD lines (q^n - 1)/(q - 1) is refused when
its VerifyConfig is made, unless force=True, rather than failing row by row.

Reports are deterministic: rows are emitted in graph-id order regardless of
worker scheduling, and the CSV / JSON renderings contain nothing that varies
between runs (timings go to the caller separately, for stderr).
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import gf
from .altspace import delta_space, kappa_space, lambda_space, space_from_graph
from .bilinear import kappa_map, lambda_map, map_from_space
from .gf import GROUP_GUARD_EXP, MAX_N_CAP, SWEEP_MAP_GUARD_M
from .graphs import (
    edge_connectivity,
    graph_from_mask,
    min_degree,
    vertex_connectivity,
)
from .group import group_from_graph, kappa_group, lambda_group

LEVELS = ("graph", "space", "map", "group")

COLUMNS = (
    "graph",
    "n",
    "m",
    "q",
    "kappa_G",
    "lambda_G",
    "delta_G",
    "kappa_A",
    "lambda_A",
    "delta_A",
    "kappa_phi",
    "lambda_phi",
    "kappa_P",
    "lambda_P",
    "status",
)


@dataclass(frozen=True)
class VerifyConfig:
    max_n: int = 4
    q: int = 3
    p: int = 3
    level: str = "all"  # graph | space | map | group | all
    force: bool = False

    def __post_init__(self):
        if not 2 <= self.max_n <= MAX_N_CAP:
            raise ValueError(f"max_n must be in [2, {MAX_N_CAP}], got {self.max_n}")
        gf.field(self.q)
        gf.field(self.p)
        if self.level not in LEVELS + ("all",):
            raise ValueError(f"unknown level {self.level!r}")
        if self.depth >= 1:
            # the space columns' lambda_space and delta_space scan every line
            # of F_q^n; refuse the whole sweep before any row runs
            lines = (self.q**self.max_n - 1) // (self.q - 1)
            gf.check_guard("lines", lines, gf.LINES_GUARD, self.force)

    @property
    def depth(self) -> int:
        return 3 if self.level == "all" else LEVELS.index(self.level)

    @property
    def q_label(self) -> str:
        # single report column covers both moduli; they differ only if asked to
        return str(self.q) if self.q == self.p else f"{self.q}/{self.p}"


def graph_id(n: int, mask: int) -> str:
    return f"n{n}e{mask:05d}"


def iter_tasks(cfg: VerifyConfig) -> Iterator[Tuple[int, int]]:
    for n in range(2, cfg.max_n + 1):
        for mask in range(1, 1 << (n * (n - 1) // 2)):
            yield n, mask


def count_tasks(cfg: VerifyConfig) -> int:
    return sum((1 << (n * (n - 1) // 2)) - 1 for n in range(2, cfg.max_n + 1))


def compute_row(n: int, mask: int, cfg: VerifyConfig) -> Tuple[dict, Dict[str, float]]:
    """One report row plus per-level wall-clock seconds."""
    g = graph_from_mask(n, mask)
    m = len(g.edges)
    row = _blank_row(n, mask, m, cfg)
    timings: Dict[str, float] = {}

    t0 = time.perf_counter()
    row["kappa_G"] = vertex_connectivity(g)[0]
    row["lambda_G"] = edge_connectivity(g)[0]
    row["delta_G"] = min_degree(g)
    timings["graph"] = time.perf_counter() - t0

    if cfg.depth >= 1:
        t0 = time.perf_counter()
        sp = space_from_graph(g, cfg.q)
        row["kappa_A"] = kappa_space(sp, force=cfg.force)[0]
        row["lambda_A"] = lambda_space(sp, force=cfg.force).value
        row["delta_A"] = delta_space(sp, force=cfg.force)[0]
        timings["space"] = time.perf_counter() - t0

    if cfg.depth >= 2 and (m <= SWEEP_MAP_GUARD_M or cfg.force):
        t0 = time.perf_counter()
        phi = map_from_space(sp)
        row["kappa_phi"] = kappa_map(phi, force=cfg.force)[0]
        row["lambda_phi"] = lambda_map(phi, force=cfg.force)[0]
        timings["map"] = time.perf_counter() - t0

    if cfg.depth >= 3 and (n + m <= GROUP_GUARD_EXP or cfg.force):
        t0 = time.perf_counter()
        P = group_from_graph(g, cfg.p)
        row["kappa_P"] = kappa_group(P, force=cfg.force).value
        row["lambda_P"] = lambda_group(P, force=cfg.force).value
        timings["group"] = time.perf_counter() - t0

    kappas = [row[c] for c in ("kappa_G", "kappa_A", "kappa_phi", "kappa_P") if row[c] is not None]
    lambdas = [row[c] for c in ("lambda_G", "lambda_A", "lambda_phi", "lambda_P") if row[c] is not None]
    ok = len(set(kappas)) == 1 and len(set(lambdas)) == 1
    row["status"] = "PASS" if ok else "FAIL"
    return row, timings


def _blank_row(n: int, mask: int, m: int, cfg: VerifyConfig) -> dict:
    row: dict = {c: None for c in COLUMNS}
    row["graph"] = graph_id(n, mask)
    row["n"] = n
    row["m"] = m
    row["q"] = cfg.q_label
    return row


def _worker(task) -> Tuple[dict, Dict[str, float], Optional[str]]:
    """(row, timings, error): a raise inside compute_row becomes an ERROR row
    and its "Type: message" text, so one crash neither ends the sweep nor
    reads as a FAIL."""
    n, mask, cfg = task
    try:
        row, timings = compute_row(n, mask, cfg)
    except Exception as exc:
        row = _blank_row(n, mask, bin(mask).count("1"), cfg)
        row["status"] = "ERROR"
        return row, {}, f"{type(exc).__name__}: {exc}"
    return row, timings, None


@dataclass
class VerifyReport:
    config: VerifyConfig
    rows: List[dict]
    stage_seconds: Dict[str, float]
    wall_seconds: float
    errors: Dict[str, str] = field(default_factory=dict)  # graph id -> "Type: message"

    @property
    def summary(self) -> dict:
        statuses = [r["status"] for r in self.rows]
        return {
            "rows": len(self.rows),
            "pass": statuses.count("PASS"),
            "fail": statuses.count("FAIL"),
            "error": statuses.count("ERROR"),
            "map_rows": sum(r["kappa_phi"] is not None for r in self.rows),
            "group_rows": sum(r["kappa_P"] is not None for r in self.rows),
        }

    @property
    def all_pass(self) -> bool:
        s = self.summary
        return s["fail"] == 0 and s["error"] == 0


def run_verify(
    cfg: VerifyConfig,
    threads: int = 1,
    on_row: Optional[Callable[[dict], None]] = None,
) -> VerifyReport:
    """Sweep every task, in graph-id order.

    Workers may finish out of order; imap's internal buffering restores the
    submission order, so on_row always sees rows sorted by graph id and the
    report is independent of the thread count.
    """
    tasks = [(n, mask, cfg) for n, mask in iter_tasks(cfg)]
    rows: List[dict] = []
    errors: Dict[str, str] = {}
    stage: Dict[str, float] = {lv: 0.0 for lv in LEVELS}
    t0 = time.perf_counter()

    def consume(results):
        for row, timings, error in results:
            rows.append(row)
            if error is not None:
                errors[row["graph"]] = error
            for lv, dt in timings.items():
                stage[lv] += dt
            if on_row is not None:
                on_row(row)

    if threads <= 1:
        consume(map(_worker, tasks))
    else:
        with multiprocessing.Pool(threads) as pool:
            consume(pool.imap(_worker, tasks, chunksize=8))
    return VerifyReport(cfg, rows, stage, time.perf_counter() - t0, errors)


# ---------------------------------------------------------------------------
# Renderers.  Byte-deterministic: no timestamps, no timings, no thread count.


def _cell(value) -> str:
    return "" if value is None else str(value)


def csv_header() -> str:
    return ",".join(COLUMNS)


def csv_row(row: dict) -> str:
    return ",".join(_cell(row[c]) for c in COLUMNS)


def render_csv(report: VerifyReport) -> str:
    lines = [csv_header()]
    lines.extend(csv_row(r) for r in report.rows)
    return "\n".join(lines) + "\n"


def render_json(report: VerifyReport) -> str:
    cfg = report.config
    payload = {
        "config": {
            "max_n": cfg.max_n,
            "q": cfg.q,
            "p": cfg.p,
            "level": cfg.level,
            "force": cfg.force,
        },
        "columns": list(COLUMNS),
        "rows": report.rows,
        "summary": report.summary,
    }
    return json.dumps(payload, indent=1) + "\n"


_SHORT = ("n", "m", "q", "kG", "lG", "dG", "kA", "lA", "dA", "kf", "lf", "kP", "lP")


def text_row(row: dict) -> str:
    cells = [f"{row['graph']:<10}"]
    cells.extend(f"{_cell(row[c]):>3}" for c in COLUMNS[1:-1])
    cells.append(f" {row['status']}")
    return " ".join(cells)


def text_header() -> str:
    cells = [f"{'graph':<10}"]
    cells.extend(f"{s:>3}" for s in _SHORT)
    cells.append(" status")
    return " ".join(cells)
