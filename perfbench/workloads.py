"""Workloads of the blt benchmark: seeded inputs for one closed-loop caller.

A workload is a list of instances.  An instance is one query a user waits
for; ``run`` makes the library calls and returns the answer as plain JSON
data (values plus canonical witness bases), and ``check`` cross-checks that
answer against other levels of the chain and the graph's own values.  Both
are called by ``worker.py``: ``run`` inside the timed pass, ``check`` after
it.  Library functions are always called through their module
(``altspace.kappa_space``), never bound here, so the tracer sees them.

Sizes are set so that each workload takes about 25-30 s on a 2-core box
with Python 3.11 and numpy 2.4 and one run fits the benchmark's run budget
(BENCHMARK.json ``run_seconds``).
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List

import numpy as np

from blt import altspace, bilinear, gf, graphs, group, harness

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass
class Instance:
    key: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


def rows(S) -> list:
    """Canonical RREF basis of a Subspace as nested int lists."""
    return [list(r) for r in S.rows]


# ---------------------------------------------------------------------------
# sweep-space-n5: rows of `blt verify --max-n 5 --level space`

SWEEP_CFG = harness.VerifyConfig(max_n=5, level="space")
# the full 1094-row sweep takes about 36 s on a 2-core box, longer than one run may
# take, so each run measures a seeded sample of its rows in sweep order
SWEEP_SAMPLE = 800


def _sweep_row(n: int, mask: int) -> str:
    row, _ = harness.compute_row(n, mask, SWEEP_CFG)
    return harness.csv_row(row)


def _check_sweep_row(line: str) -> List[str]:
    row = next(csv.DictReader(io.StringIO(harness.csv_header() + "\n" + line)))
    problems = []
    if row["status"] != "PASS":
        problems.append(f"status {row['status']}")
    for a, b in (("kappa_G", "kappa_A"), ("lambda_G", "lambda_A"), ("delta_G", "delta_A")):
        if row[a] != row[b]:
            problems.append(f"{a}={row[a]} but {b}={row[b]}")
    return problems


def sweep_space_n5(seed: int) -> List[Instance]:
    tasks = list(harness.iter_tasks(SWEEP_CFG))
    pick = np.sort(np.random.default_rng(seed).choice(len(tasks), SWEEP_SAMPLE, replace=False))
    return [
        Instance(harness.graph_id(n, mask), partial(_sweep_row, n, mask), _check_sweep_row)
        for n, mask in (tasks[i] for i in pick)
    ]


# ---------------------------------------------------------------------------
# space-n6: one `blt space kappa|lambda` user on 6-vertex graph spaces

SPACE_GRAPHS = (
    ("P6", graphs.path_graph(6)),
    ("C6", graphs.cycle_graph(6)),
    ("K33", graphs.Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])),
    ("prism", graphs.Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])),
    ("K6", graphs.complete_graph(6)),
)


def _space_query(space) -> dict:
    kappa, W = altspace.kappa_space(space, force=True)
    lam = altspace.lambda_space(space, force=True)
    delta, v = altspace.delta_space(space)
    return {"kappa": kappa, "W": rows(W), "lambda": lam.value, "U": rows(lam.U),
            "V": rows(lam.V), "delta": delta, "v": [int(x) for x in v]}


def _check_space(g, space, ans) -> List[str]:
    n, q = space.n, space.q
    problems = _check_graph_values(g, ans["kappa"], ans["lambda"])
    if ans["delta"] != graphs.min_degree(g):
        problems.append(f"delta {ans['delta']} != graph {graphs.min_degree(g)}")
    W = gf.Subspace.from_vectors(np.array(ans["W"]), n, q)
    if W.dim != n - ans["kappa"] or not altspace.is_orth_decomposable(altspace.restrict(space, W))[0]:
        problems.append("kappa witness W does not decompose")
    U = gf.Subspace.from_vectors(np.array(ans["U"]), n, q)
    V = gf.Subspace.from_vectors(np.array(ans["V"]), n, q)
    if altspace.cut_dim(space, U, V) != ans["lambda"]:
        problems.append("lambda witness (U, V) has another cut dimension")
    if altspace.degree_vector(space, ans["v"]) != ans["delta"]:
        problems.append("delta witness has another degree")
    return problems


def space_n6(seed: int) -> List[Instance]:
    out = []
    for idx, (name, g) in enumerate(SPACE_GRAPHS):
        iso_seed = seed * 100 + idx
        image, _ = altspace.random_isometry_image(altspace.space_from_graph(g, 3), iso_seed)
        out.append(Instance(f"{name}/iso{iso_seed}", partial(_space_query, image),
                            partial(_check_space, g, image)))
    return out


# ---------------------------------------------------------------------------
# chain-n4: the literal map-level and structured group-level oracles

K4_MASK = 0b111111
# the 50 random spaces of acceptance criterion 2 (tests/test_acceptance.py)
CRITERION_2_SEEDS = range(2000, 2050)


def seeded_space(seed: int, qs=(3, 5), max_m: int = 4):
    """The same draw as seeded_space in tests/test_acceptance.py."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    limit = min(max_m, n * (n - 1) // 2)
    m = int(rng.integers(1, limit + 1))
    q = qs[seed % len(qs)]
    return altspace.random_alt_space(n, m, q, rng)


def domain_change_of_basis(space, rng):
    """The map (T^t A_k T)_k for a random invertible T, codomain basis kept.

    A change of basis of the domain keeps kappa and lambda, and keeping the
    codomain basis keeps lambda_map's path through the quotients, so the
    seed changes the input and its witnesses but hardly its cost.
    """
    T = altspace.random_invertible(space.n, space.q, rng)
    mats = (T.T @ space.tensor @ T) % space.q
    return bilinear.AltBilinearMap.from_matrices(mats, space.n, space.q)


def _check_graph_values(g, kappa, lam) -> List[str]:
    problems = []
    kg, lg = graphs.vertex_connectivity(g)[0], graphs.edge_connectivity(g)[0]
    if kappa != kg:
        problems.append(f"kappa {kappa} != graph {kg}")
    if lam != lg:
        problems.append(f"lambda {lam} != graph {lg}")
    return problems


def _map_query(phi, force: bool) -> dict:
    kappa, U = bilinear.kappa_map(phi, force=force)
    lam, X = bilinear.lambda_map(phi, force=force)
    return {"kappa": kappa, "U": rows(U), "lambda": lam, "X": rows(X)}


def _check_map(space, g, ans) -> List[str]:
    problems = [] if g is None else _check_graph_values(g, ans["kappa"], ans["lambda"])
    ks = altspace.kappa_space(space, force=True)[0]
    ls = altspace.lambda_space(space, force=True).value
    if (ans["kappa"], ans["lambda"]) != (ks, ls):
        problems.append(f"map ({ans['kappa']}, {ans['lambda']}) != space ({ks}, {ls})")
    return problems


def _pair(pair):
    return None if pair is None else [rows(pair[0]), rows(pair[1])]


def _group_query(P) -> dict:
    k = group.kappa_group(P, force=True)
    lam = group.lambda_group(P, force=True)
    return {"kappa": k.value, "S_U": rows(k.subgroup.U), "kappa_pair": _pair(k.pair),
            "lambda": lam.value, "N_X": rows(lam.quotient_by.X), "lambda_pair": _pair(lam.pair)}


def _check_group(g, ans) -> List[str]:
    return _check_graph_values(g, ans["kappa"], ans["lambda"])


def _separation_query(space, phi, P) -> dict:
    return {"space": _space_query(space), "map": _map_query(phi, True),
            "group": _group_query(P)}


def _check_separation(ans) -> List[str]:
    problems = []
    got = (ans["space"]["kappa"], ans["space"]["lambda"])
    if got != (3, 2):
        problems.append(f"space (kappa, lambda) = {got}, want (3, 2)")
    if (ans["map"]["kappa"], ans["map"]["lambda"]) != got:
        problems.append("map level differs from space level")
    if (ans["group"]["kappa"], ans["group"]["lambda"]) != (3, 2):
        problems.append(f"group kappa {ans['group']['kappa']} > lambda {ans['group']['lambda']} fails")
    return problems


def chain_n4(seed: int) -> List[Instance]:
    out = []
    for n in (2, 3, 4):
        for mask in range(1, 1 << (n * (n - 1) // 2)):
            if n == 4 and mask == K4_MASK:
                continue  # lambda_map on K4 alone takes ~34 s, more than a run
            g = graphs.graph_from_mask(n, mask)
            sp = altspace.space_from_graph(g, 3)
            out.append(Instance(f"map/{harness.graph_id(n, mask)}",
                                partial(_map_query, bilinear.map_from_space(sp), True),
                                partial(_check_map, sp, g)))
    for space_seed in CRITERION_2_SEEDS:
        phi = domain_change_of_basis(seeded_space(space_seed), np.random.default_rng([seed, space_seed]))
        out.append(Instance(f"random/{space_seed}-basis{seed}", partial(_map_query, phi, False),
                            partial(_check_map, phi.span(), None)))
    for n in (2, 3, 4):
        for mask in range(1, 1 << (n * (n - 1) // 2)):
            g = graphs.graph_from_mask(n, mask)
            if n + g.m <= harness.GROUP_GUARD_EXP:  # the sweep's own group guard
                out.append(Instance(f"group/{harness.graph_id(n, mask)}",
                                    partial(_group_query, group.group_from_graph(g, 3)),
                                    partial(_check_group, g)))
    sep = altspace.kappa_gt_lambda_instance(2, 2, 3)
    phi = bilinear.map_from_space(sep)
    out.append(Instance("separation/s2t2q3",
                        partial(_separation_query, sep, phi, group.baer_group(phi, 3)),
                        _check_separation))
    return out


WORKLOADS: Dict[str, Callable[[int], List[Instance]]] = {
    "sweep-space-n5": sweep_space_n5,
    "space-n6": space_n6,
    "chain-n4": chain_n4,
}


# ---------------------------------------------------------------------------
# Stored reference answers

def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    """key -> stored answer.  Keys carry the seed where the input depends on
    it, so a fresh seed simply finds fewer keys."""
    with open(reference_path(workload)) as fh:
        return json.load(fh)["answers"]


def normalize(answer):
    """The answer as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(answer))
