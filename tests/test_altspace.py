"""Alternating matrix spaces: construction, kappa, lambda, delta."""

import ast
import hashlib
import json
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blt
from blt import altspace, bilinear, gf
from blt.altspace import (
    AltMatrixSpace,
    OrthWitness,
    GuardExceeded,
    cut_dim,
    delta_space,
    elementary_alt,
    field_ext_full_space,
    is_alternating,
    is_fully_connected,
    is_fully_connected_rect,
    is_orth_decomposable,
    kappa_gt_lambda_instance,
    kappa_space,
    lambda_space,
    orth_decomposable_pairscan,
    random_alt_space,
    random_isometry_image,
    restrict,
    space_from_graph,
    space_from_json,
    space_to_json,
    validate_orth_witness,
)
from blt.bilinear import kappa_map, lambda_map, map_from_json, map_from_space
from blt.group import group_from_json
from blt.graphs import (
    Graph,
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_connectivity,
    graph_from_mask,
    min_degree,
    path_graph,
    star_graph,
    vertex_connectivity,
)


def test_space_from_k2():
    sp = space_from_graph(complete_graph(2), 3)
    assert sp.n == 2 and sp.dim == 1
    assert (sp.tensor[0] == [[0, 1], [2, 0]]).all()


def test_space_from_k4_edge_lex_order():
    sp = space_from_graph(complete_graph(4), 3)
    assert sp.dim == 6
    # basis order matches the lexicographic edge list of K_4
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for A, (i, j) in zip(sp.tensor, edges):
        assert (A == elementary_alt(4, i, j, 3)).all()


def test_is_alternating():
    assert is_alternating(elementary_alt(3, 0, 2, 5), 5)
    M = np.zeros((3, 3), dtype=np.int64)
    M[0, 0] = 1
    assert not is_alternating(M, 5)
    M2 = np.array([[0, 1], [1, 0]])
    assert not is_alternating(M2, 3)


def test_from_matrices_rejects_non_alternating():
    with pytest.raises(ValueError):
        AltMatrixSpace.from_matrices(np.array([[[0, 1], [1, 0]]]), 2, 3)


def test_restrict_to_coordinate_plane():
    sp = space_from_graph(path_graph(3), 3)
    U = gf.Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3, 3)
    sub = restrict(sp, U)
    assert sub.n == 2 and sub.dim == 1  # only the (0,1) edge survives


def test_decomposability_frozen_cases():
    # disconnected graph -> decomposable along the component split
    sp = space_from_graph(disjoint_union(complete_graph(2), complete_graph(2)), 3)
    dec, wit = is_orth_decomposable(sp)
    assert dec
    assert validate_orth_witness(sp, wit)
    # connected graph -> not decomposable
    sp2 = space_from_graph(path_graph(4), 3)
    dec2, _ = is_orth_decomposable(sp2)
    assert not dec2
    # zero space on one line: decomposable by convention? n=1 is the edge case
    z = AltMatrixSpace.from_matrices(np.zeros((0, 3, 3), dtype=np.int64), 3, 3)
    dec3, wit3 = is_orth_decomposable(z)
    assert dec3
    assert validate_orth_witness(z, wit3)


def test_decomposability_matches_pairscan():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        sp = random_alt_space(n, m, 3, rng)
        fast, wit = is_orth_decomposable(sp)
        slow, _ = orth_decomposable_pairscan(sp)
        assert fast == slow
        if fast:
            assert validate_orth_witness(sp, wit)


def _kappa_walk_inputs():
    """Every labeled graph on 2-5 vertices at q = 3, then seeded random spaces
    with n = 2..5 (n <= 4 at q = 7) and m = 0..C(n, 2) at q in {3, 5, 7}."""
    for n in range(2, 6):
        for g in all_labeled_graphs(n):
            yield space_from_graph(g, 3)
    rng = np.random.default_rng(25)
    for q in (3, 5, 7):
        for n in range(2, 6 if q < 7 else 5):
            for m in range(n * (n - 1) // 2 + 1):
                yield random_alt_space(n, m, q, rng)


def _greedy_split_reference(sp, U):
    """V = U.intersect(perp).complement_in(perp), with U^perp from its definition."""
    n, q = sp.n, sp.q
    rows = np.einsum("bi,kij->bkj", U.mat(), sp.tensor).reshape(-1, n) % q
    perp = gf.Subspace.from_vectors(gf.nullspace(rows, q), n, q)
    return U.intersect(perp).complement_in(perp)


def test_decomposability_is_kappa_zero_and_the_split_is_the_greedy_complement():
    decomposable = 0
    for sp in _kappa_walk_inputs():
        dec, w = is_orth_decomposable(sp)
        assert dec == (kappa_space(sp)[0] == 0), sp
        if dec:
            decomposable += 1
            assert w.V == _greedy_split_reference(sp, w.U) and validate_orth_witness(sp, w), sp
    assert decomposable > 100  # the reference is exercised, not vacuous


@pytest.mark.parametrize(
    "g,expected",
    [
        (complete_graph(2), 1),
        (path_graph(3), 1),
        (complete_graph(3), 2),
        (complete_graph(4), 3),
        (cycle_graph(4), 2),
        (cycle_graph(5), 2),
        (star_graph(3), 1),
        (disjoint_union(complete_graph(2), complete_graph(2)), 0),
    ],
)
def test_kappa_frozen_values(g, expected):
    sp = space_from_graph(g, 3)
    v, W = kappa_space(sp)
    assert v == expected
    assert W.dim == sp.n - v


def test_kappa_matches_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        sp = random_alt_space(n, m, 3, rng)
        assert kappa_space(sp)[0] == kappa_map(map_from_space(sp))[0]
    for mask in (7, 21, 63):
        sp = space_from_graph(graph_from_mask(4, mask), 5)
        assert kappa_space(sp)[0] == kappa_map(map_from_space(sp))[0]


def test_kappa_witness_restriction_decomposes():
    sp = space_from_graph(cycle_graph(4), 3)
    v, W = kappa_space(sp)
    assert v == 2
    dec, _ = is_orth_decomposable(restrict(sp, W))
    assert dec


@pytest.mark.parametrize(
    "g,expected",
    [
        (path_graph(4), 1),
        (cycle_graph(4), 2),
        (cycle_graph(5), 2),
        (complete_graph(4), 3),
        (complete_graph(5), 4),
        (star_graph(4), 1),
        (disjoint_union(complete_graph(3), complete_graph(2)), 0),
    ],
)
def test_lambda_frozen_values(g, expected):
    res = lambda_space(space_from_graph(g, 3))
    assert res.value == expected


def test_lambda_witness_is_valid():
    sp = space_from_graph(cycle_graph(4), 3)
    res = lambda_space(sp)
    assert res.value == 2
    assert res.U is not None and res.V is not None
    assert res.U.sum_with(res.V).dim == sp.n
    assert res.U.intersect(res.V).dim == 0
    # the vanishing space has codimension lambda and decomposes via (U, V)
    assert res.vanishing.dim == sp.dim - res.value
    assert validate_orth_witness(res.vanishing, OrthWitness(res.U, res.V))


def test_level_scans_and_line_degrees_are_shared_per_space(monkeypatch):
    sp = space_from_graph(cycle_graph(5), 3)
    assert "_row_table" not in vars(sp)  # built on first use, not with the space
    kappa_space(sp)
    table = sp._row_table
    assert not table.flags.writeable
    calls = []
    rank_batched = altspace.rank_batched

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return rank_batched(*args, **kwargs)

    monkeypatch.setattr(altspace, "rank_batched", counting)
    assert not is_orth_decomposable(sp)[0]
    assert delta_space(sp)[0] == 2
    assert calls == []
    degs = altspace._line_degrees(sp)
    assert not degs.flags.writeable and altspace._line_degrees(sp) is degs
    monkeypatch.undo()
    lambda_space(sp)
    assert sp._row_table is table  # one row table per space object

    # the answers and witnesses do not depend on the order of the queries
    queries = {"kappa": kappa_space, "lambda": lambda_space, "delta": delta_space}

    def answers(order):
        space = space_from_graph(cycle_graph(5), 3)
        out = {name: queries[name](space) for name in order}
        delta, v = out["delta"]
        out["delta"] = delta, v.tolist()
        return out

    a = answers(("kappa", "lambda", "delta"))
    assert a == answers(("delta", "lambda", "kappa"))
    assert (a["kappa"][0], a["lambda"].value, a["delta"][0]) == (2, 2, 2)


def _chunked(count, build, step=4096):
    return np.concatenate([build(lo, min(lo + step, count)) for lo in range(0, count, step)], axis=-1)


def _einsum_ranks(space, Us):
    """Reference: rank(M_U) and rank(M_U B_U^t) of every basis in the (N, b, n) stack Us, by int64 einsums."""
    q, m = space.q, space.dim
    N, b, n = Us.shape
    M = np.einsum("ubi,kij->ubkj", Us, space.tensor).reshape(N, b * m, n) % q
    return gf.rank_batched(M, q), gf.rank_batched(np.einsum("urj,ucj->urc", M, Us), q)


def _scan(space, b):
    """_dim_scan at every index of level b."""
    return altspace._dim_scan(space, b, np.arange(gf.gaussian_binomial(space.n, b, space.q)))


def _einsum_dim_scan(space, b):
    """Reference: the level-b scan with its stacks built by int64 einsums."""
    Us = gf.subspace_matrices(space.n, b, space.q)
    return tuple(_chunked(len(Us), lambda lo, hi: np.stack(_einsum_ranks(space, Us[lo:hi]))))


def _einsum_level_bounds(space, b, best):
    """Reference: _level_bounds with einsum stacks and degrees found by line code."""
    n, q, m = space.n, space.q, space.dim
    Us = gf.subspace_matrices(n, b, q)
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    line_codes = gf.projective_lines(n, q) @ powers
    order = np.argsort(line_codes)
    degs = _einsum_dim_scan(space, 1)[0]
    lines_u = np.einsum("cb,ubn->ucn", gf.projective_lines(b, q), Us) % q
    pos = order[np.searchsorted(line_codes[order], lines_u @ powers)]
    bound = degs[pos].max(axis=1) - (b - 1)
    if m:
        r2 = _einsum_dim_scan(space, b)[1]
        flats = _chunked(len(Us), lambda lo, hi: gf.rank_batched(
            np.einsum("ubi,kij->ukbj", Us[lo:hi], space.tensor).reshape(hi - lo, m, b * n),
            q, cap=best + b * (b - 1) // 2))
        bound = np.maximum(bound, flats - r2 * (r2 - 1) // 2)
    return bound


def _einsum_cut_ranks(space, u_rows, cap):
    q, m = space.q, space.dim
    P = np.einsum("kij,bi->kbj", space.tensor, u_rows) % q
    Vs = gf.complement_matrices(u_rows, q)
    return gf.rank_batched(np.einsum("kbj,vcj->vkbc", P, Vs).reshape(len(Vs), m, -1), q, cap=cap)


def _stack_cases():
    for q in (3, 5, 7):
        for n in range(1, 6):
            ms = range(n * (n - 1) // 2 + 1)
            # n = 5 at q = 5, 7 (2801 lines, up to 140050 planes) keeps a few m for time
            yield from ((n, m, q) for m in (ms[::5] if n == 5 and q > 3 else ms))
    for q in (79, 191, 251):  # q = 191, 251 run in int32
        for n in (2, 3):
            for m in range(n * (n - 1) // 2 + 1):
                yield n, m, q


@pytest.mark.parametrize("n, m, q", list(_stack_cases()))
def test_gathered_stacks_equal_the_einsum_stacks(n, m, q):
    sp = random_alt_space(n, m, q, np.random.default_rng(1000 * n + 10 * m + q))
    for b in range(1, n // 2 + 1):
        r1, r2 = _scan(sp, b)
        ref1, ref2 = _einsum_dim_scan(sp, b)
        assert np.array_equal(r1, ref1) and np.array_equal(r2, ref2), b
        best = max(1, m // 2)
        assert np.array_equal(altspace._level_bounds(sp, b, best), np.minimum(_einsum_level_bounds(sp, b, best), best)), b
        if m:  # lambda_space never reaches the cut ranks at m = 0
            Us = gf.subspace_matrices(n, b, q)
            for i, cap in ((0, m), (len(Us) // 2, best), (len(Us) - 1, 1)):
                u_rows = np.array(Us[i])
                got, Vs = altspace._cut_ranks_for_u(sp, u_rows, cap=cap)
                assert np.array_equal(got, _einsum_cut_ranks(sp, u_rows, cap)), (b, i, cap)
                assert np.array_equal(Vs, gf.complement_matrices(u_rows, q)), (b, i, cap)


def _random_bases(n, b, q, count, rng):
    """(count, b, n) RREF bases of seeded random b-dim subspaces of F_q^n."""
    out = []
    while len(out) < count:
        S = gf.Subspace.from_vectors(rng.integers(0, q, size=(b, n)), n, q)
        if S.dim == b:
            out.append(S.mat())
    return np.array(out)


def test_scan_ranks_forced_without_elimination_up_to_max_q():
    # the two cases where _dim_scan sets r2 without ranking M_U B_U^t, checked
    # against the einsum reference: r2 = 0 at b = 1, and r2 = b where r1 = n
    rng = np.random.default_rng(53)
    forced = 0
    for q in (3, 5, 7, 79, 191, 251):
        for n in range(2, 7):
            sp = random_alt_space(n, int(rng.integers(1, n * (n - 1) // 2 + 1)), q, rng)
            for b in range(1, n // 2 + 1):
                r1, r2 = _einsum_ranks(sp, _random_bases(n, b, q, 100, rng))
                if b == 1:
                    assert (r2 == 0).all(), (q, n)
                assert (r2[r1 == n] == b).all(), (q, n, b)
                forced += int((r1 == n).sum())
    assert forced > 1000


def _bound_spaces():
    # seeded random spaces with n in {4, 5} (the first with a level b >= 2) at
    # q = 3 and 5, then every graph on 4 vertices (smaller n have no such level)
    rng = np.random.default_rng(41)
    for n, q in ((4, 3), (4, 3), (5, 3), (5, 3), (5, 3), (4, 5), (4, 5), (4, 5), (5, 5), (5, 5)):
        yield random_alt_space(n, int(rng.integers(0, n * (n - 1) // 2 + 1)), q, rng)
    for g in all_labeled_graphs(4):
        yield space_from_graph(g, 3)


def _min_cuts_and_flats(space, Us):
    """Reference: for each basis in Us, the least cut rank over its complements, and dim{B_U A}."""
    q, m = space.q, space.dim
    N, b, n = Us.shape
    NV = q ** (b * (n - b))
    step = max(1, 2**16 // NV)  # about 2^16 cuts a chunk
    mins, flats = [], []
    for lo in range(0, N, step):
        chunk = Us[lo : lo + step]
        c = len(chunk)
        Vt = np.stack([gf.complement_matrices(u, q) for u in chunk]).transpose(0, 3, 1, 2)  # (c, n, NV, n - b)
        P = np.einsum("ubi,kij->ukbj", chunk, space.tensor)
        cuts = (P.reshape(c, m * b, n) @ Vt.reshape(c, n, -1)).reshape(c, m, b, NV, n - b)
        cuts = cuts.transpose(0, 3, 1, 2, 4).reshape(c * NV, m, b * (n - b))
        mins.append(gf.rank_batched(cuts, q).reshape(c, NV).min(axis=1))
        flats.append(gf.rank_batched(P.reshape(c, m, b * n), q))
    return np.concatenate(mins), np.concatenate(flats)


def test_level_bounds_are_sound():
    # every U of every level b >= 2: the bound is at most the least cut over
    # all complements V, and where r2 = 0 the bound dim{B_U A} is that cut.
    # Level 2 of F_5^5 (20306 planes of 15625 complements each) takes every 211th U.
    tight = 0
    for sp in _bound_spaces():
        n, q, m = sp.n, sp.q, sp.dim
        for b in range(2, n // 2 + 1):
            bound = altspace._level_bounds(sp, b, max(1, m))  # cap m + b(b-1)/2: no rank reaches it
            r2 = _scan(sp, b)[1]
            Us = gf.subspace_matrices(n, b, q)
            sel = np.arange(0, len(Us), 211 if (n, q) == (5, 5) else 1)
            min_cut, flat = _min_cuts_and_flats(sp, Us[sel])
            assert (bound[sel] <= min_cut).all(), (n, q, m, b)
            zero = r2[sel] == 0
            assert np.array_equal(min_cut[zero], flat[zero]), (n, q, m, b)
            tight += int(zero.sum())
            if (n, q) == (5, 3):  # the reference cut rank is cut_dim's
                U = gf.Subspace.from_vectors(Us[0], n, q)
                Vs = gf.complement_matrices(Us[0], q)
                assert min(cut_dim(sp, U, gf.Subspace.from_vectors(V, n, q)) for V in Vs) == min_cut[0]
    assert tight > 100


def test_level_bounds_equal_the_clamped_reference_at_every_best():
    # a capped flat rank reaches best exactly when the uncapped one does, so
    # one reference per level with a cap no rank reaches serves every best;
    # the C6 image has solids that only the bound over all lines closes
    c6 = random_isometry_image(space_from_graph(cycle_graph(6), 3), 1)[0]
    for sp in [*_bound_spaces(), c6]:
        n, m = sp.n, sp.dim
        for b in range(2, n // 2 + 1):
            ref = _einsum_level_bounds(sp, b, m + b * b)
            for best in range(1, m + 2):
                assert np.array_equal(altspace._level_bounds(sp, b, best), np.minimum(ref, best)), (n, sp.q, m, b, best)


def _cascade_cases():
    # the seed-0 space-n6 images of C6 and K6 at best = delta (lambda_space's
    # level start), pinned: how many U each stage ranks or reads the lines
    # of (on K6 the count m - C(n - b, 2) closes every U before any rank);
    # then every _bound_spaces() space with m > 0 at best = m // 2 and m
    c6 = random_isometry_image(space_from_graph(cycle_graph(6), 3), 1)[0]
    k6 = random_isometry_image(space_from_graph(complete_graph(6), 3), 4)[0]
    yield c6, 3, 2, 13, 2
    yield k6, 2, 5, 0, 0
    yield k6, 3, 5, 0, 0
    for sp in (sp for sp in _bound_spaces() if sp.dim):
        for best in sorted({max(1, sp.dim // 2), sp.dim}):
            yield sp, 2, best, None, None


def test_level_bounds_cascade_ranks_only_the_open_u(monkeypatch):
    # the exact r2 is computed for the U the row and counting bounds leave
    # below best with r2 = b, the flats are ranked for the U they leave
    # below best with the exact r2, and the lines are read only for the U
    # the flats leave below best
    rank, lines_of, scan = gf.rank_batched, gf.subspace_lines, altspace._dim_scan
    ranked, lined, scanned = [], [], []

    def count_ranks(mats, q, cap=None):
        if mats.shape[1:] == flat_shape:  # the r2 ranks of _dim_scan at b >= 3 are (b m, b) stacks
            ranked.append(len(mats))
        return rank(mats, q, cap)

    def record_scan(space, b, idx):
        scanned.append(idx)
        return scan(space, b, idx)

    def record_lines(S, q):
        lined.append(S)
        return lines_of(S, q)

    reached_lines = 0
    for sp, b, best, want_flats, want_lines in _cascade_cases():
        n, q, m = sp.n, sp.q, sp.dim
        degs = altspace._line_degrees(sp)
        r2 = _scan(sp, b)[1]  # the scans run before the patches
        Us = gf.subspace_matrices(n, b, q)
        row_deg = degs[gf.subspace_row_lines(n, b, q)].max(axis=1)
        weak = np.maximum(row_deg - (b - 1), np.maximum(row_deg, m - comb(n - b, 2)) - comb(b, 2))
        row = np.maximum(row_deg - (b - 1), np.maximum(row_deg, m - comb(n - b, 2)) - r2 * (r2 - 1) // 2)
        flat = _chunked(len(Us), lambda lo, hi: gf.rank_batched(
            np.einsum("ubi,kij->ukbj", Us[lo:hi], sp.tensor).reshape(hi - lo, m, b * n), q))
        still_open = (row < best) & (flat - r2 * (r2 - 1) // 2 < best)
        flat_shape = (m, b * n)
        ranked.clear()
        lined.clear()
        scanned.clear()
        with monkeypatch.context() as mp:
            mp.setattr(altspace, "rank_batched", count_ranks)
            mp.setattr(gf, "subspace_lines", record_lines)
            mp.setattr(altspace, "_dim_scan", record_scan)
            altspace._level_bounds(sp, b, best)
        assert np.array_equal(np.concatenate(scanned), np.flatnonzero(weak < best)), (n, q, m, b)
        assert sum(ranked) == int((row < best).sum()), (n, q, m, b)
        got = np.concatenate(lined) if lined else np.zeros((0, b, n), dtype=np.int64)
        assert np.array_equal(got, Us[still_open]), (n, q, m, b)
        if want_flats is not None:
            assert (sum(ranked), len(got)) == (want_flats, want_lines)
        reached_lines += len(got)
    assert reached_lines > 0


def _einsum_flats_and_row_degrees(space, Us):
    """Reference: uncapped dim{B_U A} and the largest degree of a basis row, for each basis in Us."""
    q, m = space.q, space.dim
    N, b, n = Us.shape
    P = np.einsum("ubi,kij->ukbj", Us, space.tensor) % q
    flats = gf.rank_batched(P.reshape(N, m, b * n), q)
    rows = gf.rank_batched(P.transpose(0, 2, 1, 3).reshape(N * b, m, n), q)
    return flats, rows.reshape(N, b).max(axis=1)


def _full_space_images():
    # the full alternating spaces of F_3^5 and F_3^6 under seeded isometries
    yield random_isometry_image(space_from_graph(complete_graph(5), 3), 2)[0]
    yield random_isometry_image(space_from_graph(complete_graph(6), 3), 4)[0]


def test_counting_bounds_are_lower_bounds_on_the_flat_rank():
    # the two stage-1 bounds of _level_bounds: A -> B_U A has kernel K_U,
    # whose members are alternating forms on F^n / U, so dim{B_U A} >=
    # m - C(n - b, 2); K_U lies in the kernel for each basis row u, so
    # dim{B_U A} >= deg(u)
    for sp in [*_bound_spaces(), *_full_space_images()]:
        n, q, m = sp.n, sp.q, sp.dim
        for b in range(2, n // 2 + 1):
            Us = gf.subspace_matrices(n, b, q)
            flats, row_deg = _chunked(len(Us), lambda lo, hi: np.stack(_einsum_flats_and_row_degrees(sp, Us[lo:hi])))
            assert (m - comb(n - b, 2) <= flats).all(), (n, q, m, b)
            assert (row_deg <= flats).all(), (n, q, m, b)


def test_count_is_exact_on_the_full_space():
    # on the full space K_U is every alternating form on F^n / U
    for sp in _full_space_images():
        n, q, m = sp.n, sp.q, sp.dim
        assert m == comb(n, 2)
        for b in range(1, n // 2 + 1):
            Us = gf.subspace_matrices(n, b, q)
            flats = _chunked(len(Us), lambda lo, hi: _einsum_flats_and_row_degrees(sp, Us[lo:hi])[0])
            assert (flats == m - comb(n - b, 2)).all(), (n, b)


@pytest.mark.parametrize(
    "make, want",
    [
        (lambda: random_isometry_image(space_from_graph(complete_graph(6), 3), 4)[0], 5),
        (lambda: random_isometry_image(space_from_graph(complete_graph(6), 3), 11)[0], 5),
        (lambda: space_from_graph(_OCTAHEDRON, 3), 4),
    ],
    ids=["k6-image-4", "k6-image-11", "octahedron"],
)
def test_counting_closes_dense_levels_before_any_rank(monkeypatch, make, want):
    # every U of every level b >= 2 has m - C(n - b, 2) - r2(r2-1)/2 >= delta,
    # so _level_bounds ranks no flat stack and lambda = delta
    sp = make()
    level_bounds, rank = altspace._level_bounds, altspace.rank_batched
    inside, levels, calls = [False], [], []

    def bounds(space, b, best):
        levels.append(b)
        inside[0] = True
        try:
            return level_bounds(space, b, best)
        finally:
            inside[0] = False

    def count_ranks(mats, q, cap=None):
        if inside[0]:
            calls.append(len(mats))
        return rank(mats, q, cap)

    monkeypatch.setattr(altspace, "_level_bounds", bounds)
    monkeypatch.setattr(altspace, "rank_batched", count_ranks)
    assert lambda_space(sp).value == want
    assert levels == [2, 3]
    assert calls == []


def test_row_table_width_is_safe_up_to_max_q():
    # the table dtype is the rank kernel's width for n columns
    assert gf._work_dtype(73, 6) == np.int16
    assert gf._work_dtype(79, 6) == np.int32
    assert gf._work_dtype(gf.MAX_Q, 6) == np.int32
    for n, q in ((6, 3), (3, 73), (3, 79), (2, 191), (2, gf.MAX_Q)):
        sp = random_alt_space(n, 1, q, np.random.default_rng(q))
        assert sp._row_table.dtype == gf._work_dtype(q, n)
        assert sp._row_table.shape == ((q**n - 1) // (q - 1), 1, n)
    # the widest product the scans form: all-(q-1) rows times all-(q-1) vectors
    for q in [p for p in range(3, gf.MAX_Q + 1) if gf.is_prime(p)]:
        for n in range(1, gf.GUARD_N + 1):
            dt = gf._work_dtype(q, n)
            rows = np.full((2, 3, n), q - 1, dtype=dt)
            vecs = np.full((2, n, 4), q - 1, dtype=dt)
            wide = rows.astype(np.int64) @ vecs.astype(np.int64)
            assert np.array_equal(rows @ vecs, wide), (q, n)  # no wrap, so equal mod q too


def _scan_answers(sp):
    """Every level-scan output and both solvers' answers, on a fresh copy of sp."""
    sp = AltMatrixSpace(sp.n, sp.q, sp.basis)  # scans are cached per object
    n, q, m = sp.n, sp.q, sp.dim
    out = []
    for b in range(1, n // 2 + 1):
        out.append([r.tolist() for r in _scan(sp, b)])
        out.append(altspace._level_bounds(sp, b, max(1, m // 2)).tolist())
        if m:
            Us = gf.subspace_matrices(n, b, q)
            for i in (0, len(Us) // 2, len(Us) - 1):
                out.append([r.tolist() for r in altspace._cut_ranks_for_u(sp, np.array(Us[i]), cap=m)])
    res = lambda_space(sp)
    out.append((kappa_space(sp), res.value, res.U, res.V, res.vanishing))
    return out


def _chunk_spaces():
    # A budget of 1 entry ranks every subspace and every complement on its own:
    # n = 5 at q = 5 (20306 planes) is left out, and this seed keeps the lambda
    # scans short (a few seconds in all) while one space has kappa > lambda.
    rng = np.random.default_rng(29)
    for n, q in ((2, 3), (3, 3), (4, 3), (5, 3), (5, 3), (3, 5), (4, 5), (4, 5)):
        yield random_alt_space(n, int(rng.integers(0, n * (n - 1) // 2 + 1)), q, rng)


@pytest.mark.parametrize("chunk", [1, 97])
def test_chunk_boundaries_move_nothing(monkeypatch, chunk):
    spaces = list(_chunk_spaces())
    want = [_scan_answers(sp) for sp in spaces]
    monkeypatch.setattr(altspace, "_CHUNK", chunk)
    assert [_scan_answers(sp) for sp in spaces] == want


def test_chunk_boundaries_move_nothing_at_n6(monkeypatch):
    # budgets of 1 or 97 entries rank the 33880 solids of F_3^6 one by one (about
    # 20 s a budget), so n = 6 moves the boundaries with an odd budget instead
    sp = space_from_graph(Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]), 3)  # K3,3
    want = _scan_answers(sp)
    monkeypatch.setattr(altspace, "_CHUNK", 4097)
    assert _scan_answers(sp) == want


def _perp_reference(space):
    """Reference: the (L, L) bool table of u^t A_k x = 0 for every k, one int64 product per matrix."""
    lines = gf.projective_lines(space.n, space.q)
    hit = np.zeros((len(lines), len(lines)), dtype=bool)
    for A in space.tensor:
        hit |= (lines @ A @ lines.T) % space.q != 0
    return ~hit


def _perp_cases():
    # n <= 5 at q = 3, 5, 7 and n = 6 at q = 3; n = 2 at the int32 widths and
    # n = 3 at q = 31 (993 lines); each at m = 0, a seeded m and the full m
    small = [(n, q) for q in (3, 5, 7) for n in range(1, 6)] + [(6, 3), (2, 79), (2, 191), (2, 251), (3, 31)]
    for n, q in small:
        full = n * (n - 1) // 2
        for m in sorted({0, (7 * n + q) % (full + 1), full}):
            yield n, m, q


def _filled_rows(space):
    """The lines whose rows of the orthogonality bit table are filled."""
    return np.flatnonzero(space._perp_table[1])


@pytest.mark.parametrize("n, m, q", list(_perp_cases()))
def test_perp_bits_equal_the_product_table(n, m, q):
    # fill every row, in a seeded order and in two asks, so a row filled by
    # the first ask is read back by the second
    sp = random_alt_space(n, m, q, np.random.default_rng(100 * n + m + q))
    L = (q**n - 1) // (q - 1)
    assert _filled_rows(sp).size == 0
    order = np.random.default_rng(L).permutation(L)
    altspace._perp_dims(sp, order[: L // 2, None])
    d, bits = altspace._perp_dims(sp, order[:, None])
    assert np.array_equal(_filled_rows(sp), np.arange(L))
    assert bits.dtype == np.uint8 and bits.shape == (L, -(-L // 64) * 8)
    table = np.unpackbits(bits, axis=1)[:, :L].astype(bool)
    assert not np.unpackbits(bits, axis=1)[:, L:].any()  # the padding stays clear
    assert np.array_equal(table, _perp_reference(sp))
    assert np.array_equal(table, table.T) and table.diagonal().all()
    deg = altspace._line_degrees(sp)
    assert (table[deg == n - 1].sum(axis=1) == 1).all()
    assert np.array_equal(table.sum(axis=1), (q ** (n - deg) - 1) // (q - 1))
    assert np.array_equal(d, n - deg[order])  # dim u^perp = n - deg(u)


def test_perp_dims_refuse_a_count_that_is_no_subspace():
    sp = space_from_graph(cycle_graph(4), 3)  # 40 lines
    table = np.zeros((40, 64), dtype=bool)
    table[:, 1:40] = True  # every row misses line 0: each AND holds 39 lines, no (3^d - 1)/2
    vars(sp)["_perp_table"] = (np.packbits(table, axis=1), np.ones(40, dtype=bool))  # every row filled
    with pytest.raises(AssertionError, match="lines"):
        _scan(sp, 2)


def test_perp_bits_are_read_only_and_built_once():
    sp = space_from_graph(cycle_graph(6), 3)
    delta_space(sp)
    assert _filled_rows(sp).size == 0  # level 1 fills no row
    kappa_space(sp)
    bits, filled = sp._perp_table
    rows = _filled_rows(sp)
    assert 0 < rows.size < len(filled)
    d, view = altspace._perp_dims(sp, rows[:, None])
    assert not view.flags.writeable and np.shares_memory(view, bits)
    with pytest.raises(ValueError):
        view[rows[0], 0] = 0
    kept = bits[rows].copy()
    # a filled row is never recomputed: with the row table gone, asking for
    # the filled rows again still answers, from the table alone
    vars(sp)["_row_table"] = None
    assert np.array_equal(altspace._perp_dims(sp, rows[:, None])[0], d)
    del vars(sp)["_row_table"]
    lambda_space(sp)
    is_orth_decomposable(sp)
    assert sp._perp_table[0] is bits and np.array_equal(bits[rows], kept)


def test_bit_table_fills_only_the_rows_of_the_scanned_u(monkeypatch):
    # on the seed-1 C6 image, kappa and lambda fill exactly the rows of the
    # lines that occur in the U _dim_scan is asked about at b >= 2
    c6 = random_isometry_image(space_from_graph(cycle_graph(6), 3), 1)[0]
    asked = set()
    dim_scan = altspace._dim_scan

    def scanned(space, b, idx):
        if b >= 2:
            asked.update(gf.subspace_row_lines(space.n, b, space.q)[idx].ravel().tolist())
        return dim_scan(space, b, idx)

    monkeypatch.setattr(altspace, "_dim_scan", scanned)
    assert kappa_space(c6)[0] == 2 and lambda_space(c6).value == 2
    assert _filled_rows(c6).tolist() == sorted(asked)
    assert len(asked) == 13  # of 364 lines


def _level_scan_spaces():
    # isometry images of four graph spaces on 6 vertices, C5 at q = 5 and
    # seeded random spaces, all with a level b >= 2
    six = [path_graph(6), cycle_graph(6), complete_graph(6),
           Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])]
    for g in six:
        yield random_isometry_image(space_from_graph(g, 3), 7)[0]
    yield space_from_graph(cycle_graph(5), 5)
    rng = np.random.default_rng(61)
    for n, q in ((4, 3), (4, 7), (5, 3), (5, 5), (6, 3), (4, 11)):
        yield random_alt_space(n, int(rng.integers(0, n * (n - 1) // 2 + 1)), q, rng)


def test_levels_past_one_rank_only_the_open_r2_stacks(monkeypatch):
    # level 1 is the one level ranked by elimination; level 2 reads r1 and r2
    # off the bit table, and level 3 ranks M_U B_U^t for the U with r1 < n only
    rank_batched = altspace.rank_batched
    batches = []

    def counting(mats, q, cap=None):
        batches.append(len(mats))
        return rank_batched(mats, q, cap=cap)

    monkeypatch.setattr(altspace, "rank_batched", counting)
    for sp in _level_scan_spaces():
        altspace._line_degrees(sp)
        batches.clear()
        _scan(sp, 2)
        assert batches == [], sp
        if sp.n >= 6:
            r1, _ = _scan(sp, 3)
            assert sum(batches) == int((r1 < sp.n).sum()), sp
            if sp.dim == 15:  # the K6 image: every solid has r1 = n
                assert batches == []


def test_lambda_at_n3_never_builds_perp_bits():
    p3 = space_from_graph(path_graph(3), 83)
    assert lambda_space(p3, force=True).value == 1
    assert kappa_space(p3, force=True)[0] == 1
    assert _filled_rows(p3).size == 0  # n <= 3 has no level b >= 2


def test_space_from_graph_is_the_canonical_basis():
    for q in (3, 5):
        for n in range(2, 6):
            for g in all_labeled_graphs(n):
                mats = [elementary_alt(n, i, j, q) for i, j in g.sorted_edges()]
                assert space_from_graph(g, q) == AltMatrixSpace.from_matrices(np.array(mats), n, q), (q, g)


def _record_levels(monkeypatch):
    """Patch the level reads of the kappa walk and of the level bounds; the
    returned list gets (name, b, U asked) per call: the count bound over a
    whole level (_row_degree_max) and the U whose r1 is computed (_dim_scan)."""
    calls = []
    row_degree_max, dim_scan = altspace._row_degree_max, altspace._dim_scan

    def counted(space, b):
        calls.append(("count", b, gf.gaussian_binomial(space.n, b, space.q)))
        return row_degree_max(space, b)

    def scanned(space, b, idx):
        calls.append(("r1", b, len(idx)))
        return dim_scan(space, b, idx)

    monkeypatch.setattr(altspace, "_row_degree_max", counted)
    monkeypatch.setattr(altspace, "_dim_scan", scanned)
    return calls


def test_kappa_stops_at_zero(monkeypatch):
    # an isolated vertex gives kappa 0 at level 1; level 2 is never scanned
    sp = space_from_graph(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)]), 3)
    levels = _record_levels(monkeypatch)
    value, W = kappa_space(sp)
    assert value == 0 and W.dim == 5
    assert levels and {b for _, b, _ in levels} == {1}


def _einsum_ranks_of_spaces(tensors, Us, q):
    """Reference: _einsum_ranks for each tensor of the (G, m, n, n) stack, as (G, N) arrays of r1 and r2."""
    G, m = tensors.shape[:2]
    N, b, n = Us.shape
    P = Us.reshape(N * b, n) @ tensors.transpose(2, 0, 1, 3).reshape(n, G * m * n) % q  # rows (u, b), columns (g, k, j)
    M = P.reshape(N, b, G, m, n).transpose(2, 0, 1, 3, 4).reshape(G, N, b * m, n)
    return gf.rank_batched(M.reshape(G * N, b * m, n), q).reshape(G, N), gf.rank_batched(
        (M @ Us.transpose(0, 2, 1) % q).reshape(G * N, b * m, b), q).reshape(G, N)


def test_kappa_count_bound_is_sound():
    # every U of every level, with r1 and r2 from the einsum reference, the
    # spaces of one shape ranked together: c(U) = r1 - r2 >= maxdeg(rows of
    # U) - (b - 1), and a U with a row of degree n - 1 fails the walk's
    # validity test n - r1 > b - r2
    shapes = {}
    for sp in _kappa_walk_inputs():
        shapes.setdefault((sp.n, sp.q, sp.dim), []).append(sp.tensor)
    tight = full_rows = 0
    for (n, q, m), tensors in shapes.items():
        lines = gf.projective_lines(n, q)
        powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
        order = np.argsort(lines @ powers)
        step = max(1, 2**21 // (gf.gaussian_binomial(n, n // 2, q) * max(1, m) * n * n))
        for lo in range(0, len(tensors), step):
            A = np.stack(tensors[lo : lo + step])
            degs = _einsum_ranks_of_spaces(A, lines[:, None, :], q)[0]
            for b in range(1, n // 2 + 1):
                Us = gf.subspace_matrices(n, b, q)
                r1, r2 = _einsum_ranks_of_spaces(A, Us, q)
                rows = order[np.searchsorted((lines @ powers)[order], Us @ powers)]  # line of each RREF row
                top = degs[:, rows].max(axis=2)
                assert (r1 - r2 >= top - (b - 1)).all(), (n, q, m, b)
                assert not (n - r1 > b - r2)[top == n - 1].any(), (n, q, m, b)
                if b > 1:
                    tight += int((r1 - r2 == top - (b - 1)).sum())
                    full_rows += int((top == n - 1).sum())
    assert tight > 1000 and full_rows > 1000  # both claims are exercised at b >= 2


def test_kappa_counts_before_it_computes_r1(monkeypatch):
    # on the K6 image and forced K7 every line has degree n - 1, so kappa
    # and lambda close every U at b >= 2 by counting, and no row of the bit
    # table is filled; on the seed-1 C6 image the r1 computed per level is pinned
    levels = _record_levels(monkeypatch)
    k6 = random_isometry_image(space_from_graph(complete_graph(6), 3), 4)[0]
    k7 = space_from_graph(complete_graph(7), 3)
    for sp, force in ((k6, False), (k7, True)):
        levels.clear()
        assert kappa_space(sp, force=force)[0] == lambda_space(sp, force=force).value == sp.n - 1
        assert sum(k for name, _, k in levels if name == "r1") == 0
        assert {b for _, b, _ in levels} == set(range(1, sp.n // 2 + 1))  # every level was counted
        assert _filled_rows(sp).size == 0
    c6 = random_isometry_image(space_from_graph(cycle_graph(6), 3), 1)[0]
    levels.clear()
    assert kappa_space(c6)[0] == 2
    assert levels == [("count", 1, 364), ("r1", 1, 188), ("count", 2, 11011), ("r1", 2, 2),
                      ("count", 3, 33880), ("r1", 3, 17)]


def test_one_walk_serves_kappa_decomposability_and_lambda(monkeypatch):
    # after kappa_space the walk never runs again on the same object: the
    # only r1 that is_orth_decomposable and lambda_space compute are those
    # _level_bounds asks for, to read the exact r2 of the U its weak bound
    # leaves open
    def refuse(space):
        raise AssertionError("the kappa walk ran twice on one space")

    def bounds(space, b, best):
        levels.append(("bounds", b, best))
        return level_bounds(space, b, best)

    sp = random_isometry_image(space_from_graph(cycle_graph(6), 3), 1)[0]
    kappa_space(sp)
    levels = _record_levels(monkeypatch)
    level_bounds = altspace._level_bounds
    monkeypatch.setattr(altspace, "_kappa_walk", refuse)
    monkeypatch.setattr(altspace, "_level_bounds", bounds)
    assert is_orth_decomposable(sp) == (False, None)
    assert levels == []
    assert lambda_space(sp).value == 2
    assert levels == [("bounds", 2, 2), ("count", 2, 11011), ("r1", 2, 2),
                      ("bounds", 3, 2), ("count", 3, 33880), ("r1", 3, 17)]


@pytest.mark.parametrize("g", [cycle_graph(5), disjoint_union(path_graph(2), path_graph(3))], ids=["C5", "P2+P3"])
def test_lambda_builds_vanishing_on_demand(monkeypatch, g):
    sp = space_from_graph(g, 3)

    def refuse(*args):
        raise AssertionError("lambda_space built the vanishing subspace")

    monkeypatch.setattr(altspace, "_cut_kernel", refuse)
    res = lambda_space(sp)
    monkeypatch.undo()
    assert res.vanishing == altspace._cut_kernel(sp, res.U, res.V)
    assert res.vanishing.dim == sp.dim - res.value
    assert res.vanishing is res.vanishing  # built once


def test_lambda_matches_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(0, min(4, n * (n - 1) // 2) + 1))
        sp = random_alt_space(n, m, 3, rng)
        fast = lambda_space(sp).value
        slow, _ = lambda_map(map_from_space(sp))
        assert fast == slow, (n, m)


def test_lambda_matches_oracle_graphs_q5():
    # masks kept to m <= 4: lambda_map enumerates subspaces of the m-dim codomain
    for mask in (15, 33, 51):
        sp = space_from_graph(graph_from_mask(4, mask), 5)
        assert lambda_space(sp).value == lambda_map(map_from_space(sp))[0]


def test_lambda_pruned_level_still_exact():
    # C_4: lambda = delta, so the pruned levels must keep the dim-1 witness;
    # the literal lambda_map confirms the value
    sp = space_from_graph(cycle_graph(4), 3)
    res = lambda_space(sp)
    assert res.value == lambda_map(map_from_space(sp))[0] == 2
    # C_6 / K_5 are too big for the literal search; edge connectivity is the
    # independent reference there
    from blt.graphs import edge_connectivity

    for g in (cycle_graph(6), complete_graph(5)):
        assert lambda_space(space_from_graph(g, 3)).value == edge_connectivity(g)[0]


def _first_split_at(space, value):
    """Unpruned scan: the first split (U, V) in canonical order (b ascending,
    U in subspace_matrices order, V in complement_matrices order) whose cut
    dimension is value."""
    n, q = space.n, space.q
    for b in range(1, n):
        for u_rows in gf.subspace_matrices(n, b, q):
            Vs = gf.complement_matrices(u_rows, q)
            cuts = np.einsum("bi,kij,vcj->vkbc", u_rows, space.tensor, Vs) % q
            hits = np.flatnonzero(gf.rank_batched(cuts.reshape(len(Vs), space.dim, -1), q) == value)
            if hits.size:
                U = gf.Subspace.from_vectors(u_rows, n, q)
                V = gf.Subspace.from_vectors(Vs[hits[0]], n, q)
                assert cut_dim(space, U, V) == value
                return U, V
    raise AssertionError(f"no split has cut dimension {value}")


def test_lambda_witness_is_first_canonical_split_below_delta():
    # lambda < delta: the witness comes from a level b >= 2 that the keep-mask
    # prunes, and must still be the first split in canonical order
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(4, 6))
        sp = random_alt_space(n, int(rng.integers(1, n * (n - 1) // 2 + 1)), 3, rng)
        res = lambda_space(sp)
        if not 0 < res.value < delta_space(sp)[0]:
            continue
        assert (res.U, res.V) == _first_split_at(sp, res.value)
        assert validate_orth_witness(res.vanishing, OrthWitness(res.U, res.V))
        checked += 1
    assert checked >= 5


def _span_of_units(n, idxs):
    return gf.Subspace.from_vectors(np.eye(n, dtype=np.int64)[list(idxs)], n, 3)


@pytest.mark.parametrize(
    "sp,U,V",
    [
        # two triangles joined by an edge: lambda = 1 < delta = 2
        (
            space_from_graph(
                Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]), 3
            ),
            (0, 1, 2),
            (3, 4, 5),
        ),
        (kappa_gt_lambda_instance(2, 2, 3), (0, 1), (2, 3)),
    ],
    ids=["bridge-n6", "s2t2"],
)
def test_lambda_witness_pinned(sp, U, V):
    res = lambda_space(sp)
    assert (res.U, res.V) == (_span_of_units(sp.n, U), _span_of_units(sp.n, V))
    assert cut_dim(sp, res.U, res.V) == res.value


def test_lambda_zero_witness_is_the_decomposability_split():
    # at lambda = 0, V is the greedy complement of U cap U^perp inside
    # U^perp, not the first complement of U in canonical order
    sp = AltMatrixSpace.from_matrices([[[0, 1, 0], [2, 0, 1], [0, 2, 0]]], 3, 3)
    res = lambda_space(sp)
    assert (res.value, res.U.rows, res.V.rows) == (0, ((1, 0, 1),), ((1, 0, 0), (0, 1, 0)))
    w = is_orth_decomposable(sp)[1]
    assert (w.U, w.V) == (res.U, res.V)
    assert _first_split_at(sp, 0) == (res.U, _span_of_units(3, (1, 2)))


def test_line_complement_is_the_first_complement():
    # lambda's dim-1 witness V in closed form equals the first entry of the
    # complement enumeration for every line with n <= 4 at q in {3, 5, 7}
    for q in (3, 5, 7):
        for n in range(2, 5):
            for v in gf.projective_lines(n, q):
                want = gf.complement_matrices(v[None, :], q)[0]
                got = altspace._line_complement(v)
                assert got.dtype == want.dtype and np.array_equal(got, want), (n, q, v)


def _space_rows(q, max_n):
    """kappa (value, W), lambda (value, U, V) and delta (value, v) of every
    graph space with 2 <= n <= max_n at q, in sweep order."""
    out = []
    for n in range(2, max_n + 1):
        for mask in range(1, 1 << (n * (n - 1) // 2)):
            sp = space_from_graph(graph_from_mask(n, mask), q)
            (k, W), lam, (d, v) = kappa_space(sp), lambda_space(sp), delta_space(sp)
            out.append((k, W.rows, lam.value, lam.U.rows, lam.V.rows, d, v.tolist()))
    return out


def test_every_odd_prime_gives_the_q3_rows():
    # the values must agree, since each equals the graph's; that the witnesses
    # agree too is an observation on these graphs, not a theorem
    base = _space_rows(3, 5)
    for q, max_n in ((5, 4), (7, 4), (11, 4), (13, 4), (7, 5)):
        got = _space_rows(q, max_n)
        assert got == base[: len(got)], (q, max_n)


@pytest.mark.parametrize(
    "g,expected",
    [
        (star_graph(3), 1),
        (cycle_graph(4), 2),
        (complete_graph(4), 3),
        (path_graph(5), 1),
    ],
)
def test_delta_frozen_values(g, expected):
    sp = space_from_graph(g, 3)
    d, v = delta_space(sp)
    assert d == expected
    # witness degree matches
    D = (sp.tensor @ v) % 3
    assert gf.rank_gf(D, 3) == d


def test_delta_of_zero_space():
    z = AltMatrixSpace.from_matrices(np.zeros((0, 2, 2), dtype=np.int64), 2, 3)
    assert delta_space(z)[0] == 0


def test_degree_bounds_hold_everywhere():
    # kappa <= delta and lambda <= delta; kappa vs lambda is NOT comparable
    # for general spaces (see the separation instance), only for graphs
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        sp = random_alt_space(n, m, 3, rng)
        k = kappa_space(sp)[0]
        l = lambda_space(sp).value
        d = delta_space(sp)[0]
        assert k <= d and l <= d, (n, m, k, l, d)


def test_fully_connected():
    sp = space_from_graph(complete_graph(4), 3)
    flag, _ = is_fully_connected(sp)
    assert flag
    sp2 = space_from_graph(path_graph(4), 3)
    flag2, pair = is_fully_connected(sp2)
    assert not flag2
    u, v = pair
    vals = (u @ sp2.tensor @ v) % 3
    assert not vals.any()


@pytest.mark.parametrize("s,q", [(1, 3), (2, 3), (3, 3), (2, 5)])
def test_field_ext_every_member_invertible(s, q):
    sq = field_ext_full_space(s, q)
    assert sq.shape == (s, s, s) and gf.rank_gf(sq.reshape(s, -1), q) == s
    coeffs = gf.all_vectors(s, q)[1:]  # every nonzero combination
    members = np.tensordot(coeffs, sq, axes=(1, 0)) % q
    ranks = gf.rank_batched(members, q)
    assert (ranks == s).all()
    assert is_fully_connected_rect(sq, q)[0]


# sha256 of field_ext_full_space(s, q).tobytes(): pins which irreducible
# polynomial each degree takes, which the invertibility checks above do not
FIELD_EXT_SHA256 = {
    (1, 3): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    (2, 3): "bd9b572db0f82b0d3155801480fb11f2197f4b59b2db58e26ce153c16661bf63",
    (3, 3): "195fc6503563771e0ebfa9204f9cfbb09f3b09a94f928e48c3984bd25f0b4818",
    (4, 3): "c654f5dae1ccc5b8836d4ba2133b792fa34294e5bd61e598440ab4759562adfc",
    (5, 3): "f5f0a52274ac3b4f889f515b0f17a0b9282fb33412511088527f57047469540d",
    (1, 5): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    (2, 5): "bd9b572db0f82b0d3155801480fb11f2197f4b59b2db58e26ce153c16661bf63",
    (3, 5): "6e8aec987cf3aee03216ebdc0a96c5b7f78aac1f5df834c68b8191a218f7c239",
    (4, 5): "740b15baf1bc9ba1d7dec9157ace89470bba26e800efd1ac0d497bcb8728c8f0",
    (1, 7): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    (2, 7): "c9edd657567533f27951e4068077b69eb6536f314dfa9d36ab7f96ae2f13a3ef",
    (3, 7): "8689e274f9f89363483a4c2c76a2eaa4b1489cc96b6c6a1dcd3f2a0137357e34",
    (4, 7): "c5d6f52e6a1643e29bec1f36de0cdc1a577f8ee02484e3181324fdde951536a7",
}
# sha256 of the int64 bytes of kappa_gt_lambda_instance(s, t, 3).basis
SEPARATION_BASIS_SHA256 = {
    (2, 2): "b399563f92819bd190ff6a021961a5c8ef952921d38e6cf1c025680e8df1216d",
    (2, 3): "0c718423886094496f6f4d969dff103dd11c9e1063bd881a1a48f8787c344568",
    (3, 3): "d9171c3a8085b6007fafc9e934204fbfb727a580f152db05ba60418e11544ad2",
    (2, 4): "2f493abc5617813ab9d537632e1592a0147f6cae8c5d9a9cc5752162e0ffc46c",
    (3, 4): "4fa08ce9a9414bb13047546274ef00e537bfcbf69aa3ebafe89a81c977ba2a8b",
    (2, 5): "8b0b5503d569e9302169392e8fcf548f501762aef0412449fa761fd08ed556f2",
}


def test_the_separation_family_is_pinned():
    for (s, q), digest in FIELD_EXT_SHA256.items():
        assert hashlib.sha256(field_ext_full_space(s, q).tobytes()).hexdigest() == digest, (s, q)
    for (s, t), digest in SEPARATION_BASIS_SHA256.items():
        basis = np.array(kappa_gt_lambda_instance(s, t, 3).basis, dtype=np.int64)
        assert hashlib.sha256(basis.tobytes()).hexdigest() == digest, (s, t)


def test_kappa_gt_lambda_instance():
    sp = kappa_gt_lambda_instance(2, 2, 3)
    assert sp.n == 4
    flag, _ = is_fully_connected(sp)
    assert flag
    assert kappa_space(sp)[0] == 3
    res = lambda_space(sp)
    assert res.value == 2
    assert res.value < 3


def test_kappa_gt_lambda_instance_s2_t3():
    sp = kappa_gt_lambda_instance(2, 3, 3)
    assert sp.n == 5
    flag, _ = is_fully_connected(sp)
    assert flag
    assert kappa_space(sp)[0] == 4
    res = lambda_space(sp)
    e = np.eye(5, dtype=np.int64)
    assert res.value == 3
    assert res.U == gf.Subspace.from_vectors(e[:2], 5, 3)
    assert res.V == gf.Subspace.from_vectors(e[2:], 5, 3)


def test_kappa_gt_lambda_instance_s2_t4():
    sp = kappa_gt_lambda_instance(2, 4, 3)
    assert sp.n == 6
    assert is_fully_connected(sp)[0]
    assert kappa_space(sp)[0] == 5
    res = lambda_space(sp)
    e = np.eye(6, dtype=np.int64)
    assert res.value == 4
    assert res.U == gf.Subspace.from_vectors(e[:2], 6, 3)
    assert res.V == gf.Subspace.from_vectors(e[2:], 6, 3)
    assert cut_dim(sp, res.U, res.V) == 4


def test_kappa_gt_lambda_instance_s3_t3_gap_of_two(monkeypatch):
    # kappa(P) - lambda(P) = 2.  lambda needs the filter tightened after the
    # drop to 3 at the first U of level b = 3; without that it scans all
    # 33880 U of the level, at about 58 ms each
    real, calls = altspace._cut_ranks_for_u, []

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        if len(calls) > 100:
            raise AssertionError("the level filter was not tightened after the drop")
        return real(*args, **kwargs)

    monkeypatch.setattr(altspace, "_cut_ranks_for_u", counted)
    sp = kappa_gt_lambda_instance(3, 3, 3)
    assert (sp.n, sp.dim) == (6, 9)
    assert kappa_space(sp)[0] == 5
    res = lambda_space(sp)
    e = np.eye(6, dtype=np.int64)
    assert res.value == 3
    assert res.U == gf.Subspace.from_vectors(e[:3], 6, 3)
    assert res.V == gf.Subspace.from_vectors(e[3:], 6, 3)
    assert cut_dim(sp, res.U, res.V) == 3
    assert calls == [(3, 6)]  # the level bounds keep no U at b = 2, then the first U at b = 3


_OCTAHEDRON = Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j != i + 3])  # K2,2,2


def _seeded_q5_space():
    rng = np.random.default_rng(225)
    n, m = int(rng.integers(2, 6)), int(rng.integers(0, 11))
    assert (n, m) == (5, 6)
    return random_alt_space(n, m, 5, rng)


@pytest.mark.parametrize(
    "make, u",
    [
        (lambda: space_from_graph(_OCTAHEDRON, 3), [1, 0, 0, 0, 0, 0]),
        (lambda: random_isometry_image(space_from_graph(_OCTAHEDRON, 3), 1)[0], [1, 0, 0, 1, 0, 2]),
        (_seeded_q5_space, [1, 0, 0, 0, 0]),
    ],
    ids=["octahedron", "octahedron-image", "seed225-q5"],
)
def test_level_bounds_prove_lambda_equals_delta_without_complements(monkeypatch, make, u):
    # lambda = delta = 4 on each: the level bounds reach 4 at every U of every
    # level b >= 2, so no complement is ranked (64 complement scans on the
    # octahedron and 806 on the q = 5 space under the flat b(b-1) bound).  The
    # witness is the first line of degree 4 and its first complement.
    sp = make()

    def refuse(*args, **kwargs):
        raise AssertionError("lambda_space ranked the complements of a U")

    monkeypatch.setattr(altspace, "_cut_ranks_for_u", refuse)
    res = lambda_space(sp)
    assert res.value == 4
    assert res.U.mat().tolist() == [u]
    assert res.V.mat().tolist() == np.eye(sp.n, dtype=np.int64)[1:].tolist()


def _no_stack_cases():
    """(space, graph or None, kappa, W, lambda, U, V, delta, v, split or None), pinned."""
    e6, e5 = np.eye(6, dtype=int).tolist(), np.eye(5, dtype=int).tolist()
    yield (space_from_graph(_OCTAHEDRON, 3), _OCTAHEDRON,
           4, [e6[0], e6[3]], 4, [e6[0]], e6[1:], 4, e6[0], None)
    c6 = cycle_graph(6)
    u = [1, 1, 2, 1, 0, 1]
    yield (random_isometry_image(space_from_graph(c6, 3), 5)[0], c6,
           2, [[1, 0, 1, 0, 0, 0], [0, 1, 1, 1, 0, 0], e6[4], e6[5]], 2, [u], e6[1:], 2, u, None)
    p4, e4 = path_graph(4), np.eye(4, dtype=int).tolist()
    yield space_from_graph(p4, 5), p4, 1, [e4[0], e4[2], e4[3]], 1, [e4[0]], e4[1:], 1, e4[0], None
    # a decomposable space, so is_orth_decomposable gathers the basis of its first hit
    split = [[1, 0, 2, 0, 0], [0, 0, 0, 1, 0]], [[1, 0, 0, 0, 1], [0, 1, 0, 2, 0], [0, 0, 1, 0, 0]]
    sp = random_isometry_image(space_from_graph(disjoint_union(path_graph(2), path_graph(3)), 3), 2)[0]
    yield sp, None, 0, e5, 0, *split, 1, [1, 0, 2, 0, 0], split


@pytest.mark.parametrize("case", list(_no_stack_cases()), ids=["octahedron", "c6-image", "p4-q5", "split-image"])
def test_space_scans_never_build_a_level_stack(monkeypatch, case):
    # the scans read each level through subspace_row_lines and gather only
    # the bases they need, so a subspace_matrices call is an error here
    sp, g, kappa, W, lam, U, V, delta, v, split = case

    def refuse(*args, **kwargs):
        raise AssertionError("a space scan built a whole level of subspace bases")

    monkeypatch.setattr(gf, "subspace_matrices", refuse)
    monkeypatch.setattr(altspace, "subspace_matrices", refuse)
    got_kappa, got_W = kappa_space(sp)
    res = lambda_space(sp)
    got_delta, got_v = delta_space(sp)
    dec, w = is_orth_decomposable(sp)
    assert (got_kappa, got_W.mat().tolist()) == (kappa, W)
    assert (res.value, res.U.mat().tolist(), res.V.mat().tolist()) == (lam, U, V)
    assert (got_delta, got_v.tolist()) == (delta, v)
    assert dec == (split is not None)
    if dec:
        assert (w.U.mat().tolist(), w.V.mat().tolist()) == split and validate_orth_witness(sp, w)
    if g is not None:
        assert (kappa, lam, delta) == (vertex_connectivity(g)[0], edge_connectivity(g)[0], min_degree(g))


def test_forced_scans_at_seven_vertices_stay_small():
    # forced n = 7 at q = 3: level 3 holds 925771 solids, read through their
    # int32 row lines (11 MB); an int64 stack of the level alone would be 155 MB
    sp = space_from_graph(cycle_graph(7), 3)
    tracemalloc.start()
    try:
        kappa, W = kappa_space(sp, force=True)
        res = lambda_space(sp, force=True)
        delta, v = delta_space(sp, force=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    e7 = np.eye(7, dtype=int).tolist()
    assert (kappa, res.value, delta) == (2, 2, 2)
    assert W.mat().tolist() == [e7[0]] + e7[2:6]
    assert (res.U.mat().tolist(), res.V.mat().tolist(), v.tolist()) == ([e7[0]], e7[1:], e7[0])
    assert peak < 32 * 2**20


def test_isometry_invariance():
    sp = space_from_graph(cycle_graph(4), 3)
    base = (kappa_space(sp)[0], lambda_space(sp).value, delta_space(sp)[0])
    for seed in range(6):
        img, T = random_isometry_image(sp, seed)
        assert gf.rank_gf(T, 3) == sp.n
        assert (kappa_space(img)[0], lambda_space(img).value, delta_space(img)[0]) == base


def test_json_roundtrip():
    sp = space_from_graph(cycle_graph(4), 5)
    sp2 = space_from_json(space_to_json(sp))
    assert sp2.n == sp.n and sp2.q == sp.q and sp2.dim == sp.dim
    assert (sp2.tensor == sp.tensor).all()


def test_json_rejects_garbage():
    with pytest.raises(ValueError, match="invalid JSON"):
        space_from_json("not json")
    with pytest.raises(ValueError, match="missing key"):
        space_from_json('{"q": 3, "n": 2}')
    with pytest.raises(ValueError):
        space_from_json('{"q": 3, "n": 2, "matrices": [[[0, 1], [1, 0]]]}')


def test_guards():
    rng = np.random.default_rng(0)
    sp = random_alt_space(7, 2, 3, rng)
    with pytest.raises(GuardExceeded, match="--force"):
        kappa_space(sp)
    with pytest.raises(GuardExceeded):
        lambda_space(sp)
    # force lifts
    assert kappa_space(sp, force=True)[0] >= 0


def test_no_guard_keywords_in_library():
    # every budget is a gf constant; force=True is the only way past one
    found = []
    for path in sorted(Path(blt.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                found += [f"{path.name}:{node.name}({p.arg})" for p in params if p.arg.startswith("guard_")]
    assert not found


@pytest.mark.parametrize(
    "solver,arg,module",
    [
        # path graphs: n = budget + 1 vertices
        (bilinear.kappa_map, map_from_space(space_from_graph(path_graph(gf.GUARD_N + 1), 3)), altspace),
        # K5 minus an edge: n = 5 passes the n budget, m = 9 does not
        (bilinear.lambda_map, map_from_space(space_from_graph(graph_from_mask(5, 0b1111111110), 3)), bilinear),
        (bilinear.lambda_map, map_from_space(space_from_graph(path_graph(gf.GUARD_N + 1), 3)), bilinear),
    ],
    ids=["kappa_map", "lambda_map", "lambda_map_n"],
)
def test_guard_refuses_one_past_budget(monkeypatch, solver, arg, module):
    def started(*args, **kwargs):
        raise AssertionError("the search ran past the guard")

    monkeypatch.setattr(module, "subspace_matrices", started)
    with pytest.raises(GuardExceeded, match="--force"):
        solver(arg)


@pytest.mark.parametrize(
    "reader,payload",
    [
        (space_from_json, {"q": 3, "n": 2, "matrices": [[[0, 1], [2, 0]]]}),
        (map_from_json, {"q": 3, "n": 2, "codomain_dim": 1, "matrices": [[[0, 1], [2, 0]]]}),
        (group_from_json, {"p": 3, "n": 2, "m": 1, "phi": [[[0, 1], [2, 0]]]}),
    ],
    ids=["space", "map", "group"],
)
def test_json_readers_reject_bad_types(reader, payload):
    reader(json.dumps(payload))  # the well-formed payload loads
    stack = next(k for k, v in payload.items() if isinstance(v, list))
    bad = [{k: str(v) if k == key else v for k, v in payload.items()} for key in payload if key != stack]
    bad += [{**payload, "n": 2.0}, {**payload, "n": True}, {**payload, "n": 0}, {**payload, stack: "none"}]
    for entry in ("1", 1.0, None, [1], True):
        bad.append({**payload, stack: [[[0, entry], [2, 0]]]})
    bad += [{**payload, stack: [[[0, 1], [2]]]}, {**payload, stack: [[[0, 3], [2, 0]]]}]
    for b in bad:
        with pytest.raises(ValueError):
            reader(json.dumps(b))
    with pytest.raises(ValueError, match="must be an object"):
        reader("[1, 2]")


# batched literal oracles: the self-adjoint filter of first_decomposable


def _passes_filter(space):
    """True when first_decomposable sends the space to its exact test."""
    build = lambda lo, hi: space.tensor[None]  # noqa: E731
    return altspace.first_decomposable(1, space.dim, space.n, space.q, build, lambda i: True) == 0


def test_adjoint_operator_gives_the_rows_of_xt_a_minus_a_x():
    rng = np.random.default_rng(41)
    for w in (1, 2, 3, 4, 5):
        op = altspace._adjoint_operator(w)
        iu, ju = np.triu_indices(w)
        assert op.shape == (w * w, len(iu) * w * w) and not op.flags.writeable
        for _ in range(5):
            upper = np.triu(rng.integers(-4, 5, size=(w, w)), k=1)
            A = upper - upper.T
            X = rng.integers(-4, 5, size=(w, w))
            rows = (A.reshape(-1) @ op).reshape(len(iu), w * w)
            want = X.T @ A - A @ X
            assert (want == want.T).all()
            assert (rows @ X.reshape(-1) == want[iu, ju]).all()


def test_no_decomposable_space_has_adjoint_rank_w2_minus_1():
    # dim S = 1 must prove indecomposability.  On graph spaces it also holds
    # for every indecomposable one, so the filter does skip; there the graph
    # decides (disconnected iff decomposable, criterion 1 checks it)
    graphs_n5 = [g for n in range(2, 6) for g in all_labeled_graphs(n)]
    rng = np.random.default_rng(43)
    random_spaces = []
    for k in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        random_spaces.append(random_alt_space(n, m, (3, 5)[k % 2], rng))
    for g in graphs_n5:
        assert _passes_filter(space_from_graph(g, 3)) == (vertex_connectivity(g)[0] == 0), g
    for sp in random_spaces:
        assert _passes_filter(sp) or not is_orth_decomposable(sp)[0], sp
    assert len(graphs_n5) == 1094


# the guard on the number of lines: kappa_space, lambda_space, delta_space and is_fully_connected

LINES_PAST_GUARD = space_from_graph(path_graph(9), 3)  # (3^9 - 1)/2 = 9841 lines


def test_lines_guard_refuses_one_past_budget(monkeypatch):
    assert (3**8 - 1) // 2 <= gf.LINES_GUARD < (3**9 - 1) // 2

    def started(*args, **kwargs):
        raise AssertionError("the search ran past the guard")

    monkeypatch.setattr(gf, "projective_lines", started)
    monkeypatch.setattr(altspace, "_line_degrees", started)
    monkeypatch.setattr(altspace, "_dim_scan", started)
    for solver in (delta_space, is_fully_connected):
        with pytest.raises(GuardExceeded, match="--force"):
            solver(LINES_PAST_GUARD)
    with pytest.raises(GuardExceeded, match="lines=9841"):
        delta_space(LINES_PAST_GUARD)
    # n = 4 passes the n budget of kappa_space and lambda_space, but F_19^4 has 7240 lines
    for solver in (kappa_space, lambda_space):
        with pytest.raises(GuardExceeded, match="lines=7240"):
            solver(space_from_graph(path_graph(4), 19))


def test_lines_guard_lifts_with_force():
    assert delta_space(LINES_PAST_GUARD, force=True)[0] == 1
    # n = 3 passes lambda_space's own guard, but F_83^3 has 83^2 + 83 + 1 = 6973 lines
    p3 = space_from_graph(path_graph(3), 83)
    with pytest.raises(GuardExceeded, match="lines=6973"):
        lambda_space(p3)
    assert lambda_space(p3, force=True).value == 1
    flag, (u, v) = is_fully_connected(LINES_PAST_GUARD, force=True)
    assert not flag and not ((u @ LINES_PAST_GUARD.tensor @ v) % 3).any()


# the guard on the largest level, [n, n // 2]_q subspaces: kappa_space and lambda_space

def test_level_guard_admits_every_level_within_the_lines_budget_but_one():
    refused = []
    for n in range(2, gf.GUARD_N + 1):
        for q in [p for p in range(3, gf.MAX_Q + 1) if gf.is_prime(p)]:
            if (q**n - 1) // (q - 1) <= gf.LINES_GUARD and gf.gaussian_binomial(n, n // 2, q) > gf.LEVEL_GUARD:
                refused.append((n, q))
    assert refused == [(6, 5)]
    assert gf.gaussian_binomial(5, 2, 7) == 140050 and gf.gaussian_binomial(4, 2, 17) == 89030


def test_level_guard_refuses_n6_at_q5(monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("the search ran past the guard")

    sp = space_from_graph(path_graph(6), 5)  # 3906 lines pass, 2558556 solids do not
    monkeypatch.setattr(altspace, "_line_degrees", started)
    monkeypatch.setattr(altspace, "_dim_scan", started)
    for solver in (kappa_space, lambda_space):
        with pytest.raises(GuardExceeded, match="subspaces=2558556.*--force"):
            solver(sp)


def test_level_guard_lifts_with_force_and_admits_n5_at_q7(monkeypatch):
    # an isolated vertex gives kappa = lambda = 0 at level 1, so the forced
    # n = 6, q = 5 queries stop before the level past the guard
    sp = space_from_graph(Graph.from_edges(6, [(i, i + 1) for i in range(4)]), 5)  # P5 and vertex 5
    levels = _record_levels(monkeypatch)
    assert kappa_space(sp, force=True)[0] == 0
    assert lambda_space(sp, force=True).value == 0
    assert levels and {b for _, b, _ in levels} == {1}
    # n = 5 at q = 7 (140050 planes) passes both guards
    sp = space_from_graph(Graph.from_edges(5, [(i, i + 1) for i in range(3)]), 7)  # P4 and vertex 4
    assert kappa_space(sp)[0] == 0 and lambda_space(sp).value == 0


def _fully_connected_reference(space):
    n, q = space.n, space.q
    if n == 1:
        return True, None
    lines = gf.projective_lines(n, q)
    if space.dim == 0:
        return False, (np.array(lines[0]), np.array(lines[1]))
    hit = np.zeros((len(lines), len(lines)), dtype=bool)
    for A in space.tensor:
        hit |= (lines @ A @ lines.T) % q != 0
    np.fill_diagonal(hit, True)
    if hit.all():
        return True, None
    i, j = np.argwhere(~hit)[0]
    return False, (np.array(lines[i]), np.array(lines[j]))


def test_streamed_full_connectivity_returns_the_first_pair():
    rng = np.random.default_rng(53)
    spaces = [
        space_from_graph(complete_graph(4), 3),
        space_from_graph(path_graph(4), 3),
        space_from_graph(cycle_graph(5), 3),
        kappa_gt_lambda_instance(2, 2, 3),
        kappa_gt_lambda_instance(2, 3, 3),
        AltMatrixSpace.zero(3, 3),
        AltMatrixSpace.zero(1, 3),
    ] + [random_alt_space(4, int(rng.integers(1, 7)), 3, rng) for _ in range(10)]
    for sp in spaces:
        got, want = is_fully_connected(sp), _fully_connected_reference(sp)
        assert got[0] == want[0]
        if want[1] is None:
            assert got[1] is None
        else:
            assert [p.tolist() for p in got[1]] == [p.tolist() for p in want[1]]


def test_full_connectivity_is_delta_n_minus_1_on_every_graph_up_to_n5():
    graphs = [g for n in range(2, 6) for g in all_labeled_graphs(n)]
    assert len(graphs) == 1094
    for g in graphs:
        sp = space_from_graph(g, 3)
        flag, pair = is_fully_connected(sp)
        assert flag == g.is_complete() == (delta_space(sp)[0] == g.n - 1), g
        if not flag:
            u, x = pair
            assert gf.rank_gf(np.array([u, x]), 3) == 2 and not ((u @ sp.tensor @ x) % 3).any(), g


@pytest.mark.parametrize("q", [3, 5])
def test_full_connectivity_of_the_separation_family_matches_the_pair_table(q):
    for s, t in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)):
        sp = kappa_gt_lambda_instance(s, t, q)
        assert is_fully_connected(sp) == _fully_connected_reference(sp) == (True, None), (s, t)


@pytest.mark.parametrize("g", [complete_graph(5), path_graph(5)], ids=["K5", "P5"])
def test_full_connectivity_reads_the_cached_degrees_without_a_rank(monkeypatch, g):
    sp = space_from_graph(g, 3)
    delta_space(sp)

    def refuse(*args, **kwargs):
        raise AssertionError("is_fully_connected ranked a stack")

    monkeypatch.setattr(altspace, "rank_batched", refuse)
    flag, pair = is_fully_connected(sp)
    if g.is_complete():
        assert flag and pair is None
    else:
        u, x = pair
        assert not flag and not ((u @ sp.tensor @ x) % 3).any()


# property tests


@given(st.integers(0, 10**6), st.integers(2, 4), st.sampled_from([3, 5]))
@settings(max_examples=25, deadline=None)
def test_restriction_monotone_under_subspaces(seed, n, q):
    # restricting to a smaller U can only keep what the bigger U kept
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, n * (n - 1) // 2 + 1))
    sp = random_alt_space(n, m, q, rng)
    U = gf.Subspace.full(n, q)
    sub = restrict(sp, U)
    assert sub.dim == sp.dim


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_elementary_matrices_independent(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    sp = space_from_graph(complete_graph(n), 3)
    assert sp.dim == n * (n - 1) // 2
