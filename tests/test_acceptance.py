"""Acceptance suite: ten cross-level checks, one test per criterion.

Each criterion is a single test so the -v report carries exactly one
pass/fail line per item.  Shared sweeps live in module-scoped fixtures.

 1. graph vs space: kappa/lambda/delta agree on every labeled graph, 2..5
    vertices, q = 3
 2. space vs map: literal map-level searches agree with the matrix-space
    searches on every graph space with n <= 4 plus 50 seeded random spaces
 3. map vs group: structured group searches agree with the map level on
    every labeled graph with 2..3 vertices, p = 3
 4. lambda two ways: the pruned space search equals the literal codomain
    search lambda_map on 110 seeded random spaces beyond criterion 2's
 5. degree bounds: kappa <= delta and lambda <= delta on every criterion-1
    space; element degrees stay below n on every criterion-3 group
 6. separation: the block construction is fully connected with kappa = 3
    and lambda = 2, and the structured group searches find the same gap
 7. full-connectivity constructor: every nonzero member invertible, space
    fully connected, for (s, q) in {(2,3), (3,3), (2,5)}
 8. group sanity: associativity, exponent p, commutator inside the center,
    and the order bookkeeping, for all graph groups of order <= 3^5 plus
    one p = 5 sample
 9. isometry invariance: kappa/lambda/delta unchanged under 20 seeded
    changes of basis
10. determinism: the sweep report is byte-identical across thread counts

The criterion-1 sweep report is also checked byte for byte against the
sha256 stored with the benchmark reference answers.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from blt import cli
from blt.altspace import (
    delta_space,
    field_ext_full_space,
    is_fully_connected,
    is_fully_connected_rect,
    kappa_gt_lambda_instance,
    kappa_space,
    lambda_space,
    random_alt_space,
    random_isometry_image,
    space_from_graph,
)
from blt.bilinear import kappa_map, lambda_map, map_from_space
from blt.gf import all_vectors, rank_gf
from blt.graphs import cycle_graph, edge_connectivity, graph_from_mask, vertex_connectivity
from blt.group import baer_group, deg_element, group_from_graph, kappa_group, lambda_group
from blt.harness import VerifyConfig, render_csv, run_verify
from blt.lattice import (
    center_indices,
    check_associativity_exhaustive,
    check_associativity_sampled,
    check_exponent,
    derived_subgroup,
    small_group,
)

SWEEP_THREADS = 8


def all_masks(n):
    return range(1, 1 << (n * (n - 1) // 2))


def seeded_space(seed, qs=(3, 5), max_m=4):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    limit = min(max_m, n * (n - 1) // 2)
    m = int(rng.integers(1, limit + 1))
    q = qs[seed % len(qs)]
    return random_alt_space(n, m, q, rng)


@pytest.fixture(scope="module")
def space_sweep():
    # every labeled graph on 2..5 vertices, graph and space columns
    return run_verify(VerifyConfig(max_n=5, level="space"), threads=SWEEP_THREADS)


@pytest.fixture(scope="module")
def small_graph_chain():
    # graph -> space -> map -> group for all labeled graphs on 2..3 vertices
    out = []
    for n in (2, 3):
        for mask in all_masks(n):
            g = graph_from_mask(n, mask)
            sp = space_from_graph(g, 3)
            phi = map_from_space(sp)
            P = group_from_graph(g, 3)
            out.append((g, sp, phi, P))
    return out


def test_criterion_01_graph_vs_space(space_sweep):
    rows = space_sweep.rows
    assert len(rows) == 1094
    bad = [r["graph"] for r in rows
           if (r["kappa_G"], r["lambda_G"], r["delta_G"])
           != (r["kappa_A"], r["lambda_A"], r["delta_A"])]
    assert bad == []
    print(f"criterion 1: PASS - {len(rows)} labeled graphs, 2..5 vertices, q=3")


def test_sweep_report_matches_the_stored_digest(space_sweep):
    # the n <= 5 space sweep report is byte-identical to the stored benchmark reference
    ref_path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "sweep-space-n5.json"
    ref = json.loads(ref_path.read_text())
    digest = hashlib.sha256(render_csv(space_sweep).encode()).hexdigest()
    assert digest == ref["render_csv_sha256"]


def test_criterion_02_space_vs_map():
    checked = 0
    for n in (2, 3, 4):
        for mask in all_masks(n):
            sp = space_from_graph(graph_from_mask(n, mask), 3)
            phi = map_from_space(sp)
            assert kappa_map(phi, force=True)[0] == kappa_space(sp, force=True)[0]
            assert lambda_map(phi, force=True)[0] == lambda_space(sp, force=True).value
            checked += 1
    for seed in range(2000, 2050):
        sp = seeded_space(seed)
        phi = map_from_space(sp)
        assert kappa_map(phi)[0] == kappa_space(sp)[0], f"seed {seed}"
        assert lambda_map(phi)[0] == lambda_space(sp).value, f"seed {seed}"
        checked += 1
    print(f"criterion 2: PASS - {checked} spaces (all graphs n<=4 + 50 random)")


def test_criterion_03_map_vs_group(small_graph_chain):
    for g, sp, phi, P in small_graph_chain:
        kg = kappa_group(P, method="structured").value
        lg = lambda_group(P, method="structured").value
        # the group must land back on the graph values, and agree with the
        # map rung in between
        assert kg == vertex_connectivity(g)[0] == kappa_map(phi)[0], g.edges
        assert lg == edge_connectivity(g)[0] == lambda_map(phi)[0], g.edges
    print(f"criterion 3: PASS - {len(small_graph_chain)} groups, structured path, p=3")


def test_criterion_04_lambda_two_ways():
    # the graph spaces are criterion 2's; these are seeded spaces it does not check
    for seed in range(4000, 4110):
        sp = seeded_space(seed)
        assert lambda_space(sp).value == lambda_map(map_from_space(sp))[0], f"seed {seed}"
    print("criterion 4: PASS - 110 seeded spaces, lambda_space == lambda_map")


def test_criterion_05_degree_bounds(space_sweep, small_graph_chain):
    for r in space_sweep.rows:
        assert r["kappa_A"] <= r["delta_A"], r["graph"]
        assert r["lambda_A"] <= r["delta_A"], r["graph"]
    elements = 0
    for g, sp, phi, P in small_graph_chain:
        for h in P.all_elements():
            assert deg_element(P, h) <= P.n - 1
            elements += 1
    print(f"criterion 5: PASS - bounds on {len(space_sweep.rows)} spaces, "
          f"{elements} group elements")


def test_criterion_06_separation_survives_the_chain():
    sp = kappa_gt_lambda_instance(2, 2, 3)
    full, _ = is_fully_connected(sp)
    assert full
    assert kappa_space(sp, force=True)[0] == 3
    assert lambda_space(sp, force=True).value == 2
    P = baer_group(map_from_space(sp), 3)
    kg = kappa_group(P, force=True).value
    lg = lambda_group(P, force=True).value
    assert lg < kg
    print(f"criterion 6: PASS - kappa=3 > lambda=2; group image kappa={kg} > lambda={lg}")


def test_criterion_07_fully_connected_constructor():
    for s, q in ((2, 3), (3, 3), (2, 5)):
        sq = field_ext_full_space(s, q)
        flat = sq.reshape(s, -1)
        assert rank_gf(flat, q) == s
        for coeffs in all_vectors(s, q)[1:]:
            member = (coeffs @ flat).reshape(s, s) % q
            assert rank_gf(member, q) == s, (s, q, coeffs)
        ok, _ = is_fully_connected_rect(sq, q)
        assert ok, (s, q)
    print("criterion 7: PASS - (s,q) in {(2,3), (3,3), (2,5)}, all members invertible")


def test_criterion_08_group_axioms():
    cases = []
    for n in (2, 3):
        for mask in all_masks(n):
            g = graph_from_mask(n, mask)
            if n + len(g.edges) <= 5:
                cases.append((g, 3))
    cases.append((graph_from_mask(2, 1), 5))  # one sample away from p = 3
    rng = np.random.default_rng(8)
    for g, p in cases:
        P = group_from_graph(g, p)
        sg = small_group(P)
        if sg.order <= 125:
            assert check_associativity_exhaustive(sg)
        else:
            assert check_associativity_sampled(sg, rng, 100_000)
        assert check_exponent(sg, p)
        derived = derived_subgroup(sg, range(sg.order))
        assert set(derived) <= set(center_indices(sg))
        assert len(derived) == p ** P.m
        assert sg.order // len(derived) == p ** P.n
    print(f"criterion 8: PASS - {len(cases)} groups, axioms + order bookkeeping")


def test_criterion_09_isometry_invariance():
    bases = [
        space_from_graph(cycle_graph(4), 3),
        space_from_graph(graph_from_mask(3, 0b011), 3),
        random_alt_space(4, 3, 5, np.random.default_rng(9)),
    ]
    refs = []
    for base in bases:
        ref = (kappa_space(base)[0], lambda_space(base).value, delta_space(base)[0])
        refs.append(ref)
        for seed in range(20):
            image, T = random_isometry_image(base, seed)
            assert rank_gf(T, base.q) == base.n
            got = (kappa_space(image)[0], lambda_space(image).value,
                   delta_space(image)[0])
            assert got == ref, (base.q, seed)
    print(f"criterion 9: PASS - 20 isometries on each of {len(bases)} spaces, "
          f"parameters stay {refs}")


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    outs = []
    for threads in (1, 8):
        dest = tmp_path / f"t{threads}"
        code = cli.main(["verify", "--max-n", "4",
                         "--threads", str(threads), "--out", str(dest)])
        assert code == 0
        outs.append((dest.with_suffix(".csv").read_bytes(),
                     dest.with_suffix(".json").read_bytes()))
    capsys.readouterr()
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
    rows = json.loads(outs[0][1])["summary"]["rows"]
    print(f"criterion 10: PASS - {rows}-row report byte-identical, 1 vs 8 workers")
