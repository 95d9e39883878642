"""Alternating matrix spaces: construction, kappa, lambda, delta."""

import ast
import json
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
    kappa_space_bruteforce,
    lambda_space,
    lambda_space_oracle,
    orth_decomposable_pairscan,
    random_alt_space,
    random_isometry_image,
    restrict,
    space_from_graph,
    space_from_json,
    space_to_json,
    validate_orth_witness,
)
from blt.bilinear import map_from_json, map_from_space
from blt.group import group_from_json
from blt.graphs import (
    Graph,
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    disjoint_union,
    graph_from_mask,
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
        assert kappa_space(sp)[0] == kappa_space_bruteforce(sp)[0]
    for mask in (7, 21, 63):
        sp = space_from_graph(graph_from_mask(4, mask), 5)
        assert kappa_space(sp)[0] == kappa_space_bruteforce(sp)[0]


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
    kappa_space(sp)
    calls = []
    rank_batched = altspace.rank_batched

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return rank_batched(*args, **kwargs)

    monkeypatch.setattr(altspace, "rank_batched", counting)
    assert not is_orth_decomposable(sp)[0]
    assert delta_space(sp)[0] == 2
    assert calls == []
    r1, r2 = altspace._dim_scan(sp, 1)
    assert not r1.flags.writeable and not r2.flags.writeable
    monkeypatch.undo()

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


def test_lambda_matches_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(0, min(4, n * (n - 1) // 2) + 1))
        sp = random_alt_space(n, m, 3, rng)
        fast = lambda_space(sp).value
        slow, _, _ = lambda_space_oracle(sp)
        assert fast == slow, (n, m)


def test_lambda_matches_oracle_graphs_q5():
    # masks kept to m <= 4: the oracle enumerates subspaces of the m-dim space
    for mask in (15, 33, 51):
        sp = space_from_graph(graph_from_mask(4, mask), 5)
        assert lambda_space(sp).value == lambda_space_oracle(sp)[0]


def test_lambda_pruned_level_still_exact():
    # C_4: lambda = delta, so the pruned levels must keep the dim-1 witness;
    # the oracle confirms the value
    sp = space_from_graph(cycle_graph(4), 3)
    res = lambda_space(sp)
    assert res.value == lambda_space_oracle(sp)[0] == 2
    # C_6 / K_5 are too big for the subspace oracle; edge connectivity is the
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
    assert sq.dim == s
    coeffs = gf.all_vectors(s, q)[1:]  # every nonzero combination
    members = np.tensordot(coeffs, sq.tensor, axes=(1, 0)) % q
    ranks = gf.rank_batched(members, q)
    assert (ranks == s).all()
    assert is_fully_connected_rect(sq)[0]


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
    assert lambda_space(sp).value <= 3


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
    assert calls == [(2, 6)] * 26 + [(3, 6)]  # 26 kept U at b = 2, then the first U at b = 3


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
        # path graphs: n = budget + 1 vertices, or m = budget + 1 edges
        (kappa_space_bruteforce, space_from_graph(path_graph(gf.BRUTEFORCE_GUARD_N + 1), 3), altspace),
        (lambda_space_oracle, space_from_graph(path_graph(gf.ORACLE_GUARD_M + 2), 3), altspace),
        (bilinear.kappa_map, map_from_space(space_from_graph(path_graph(gf.GUARD_N + 1), 3)), bilinear),
        (
            bilinear.lambda_map,
            map_from_space(space_from_graph(path_graph(gf.LAMBDA_MAP_GUARD_M + 2), 3)),
            bilinear,
        ),
    ],
    ids=["kappa_space_bruteforce", "lambda_space_oracle", "kappa_map", "lambda_map"],
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


def _kappa_space_bruteforce_reference(space):
    n, q = space.n, space.q
    for c in range(n):
        for w_rows in gf.subspace_matrices(n, n - c, q):
            W = gf.Subspace.from_vectors(np.array(w_rows), n, q)
            if is_orth_decomposable(restrict(space, W))[0]:
                return c, W
    raise AssertionError("unreachable")


def _lambda_space_oracle_reference(space):
    n, q, m = space.n, space.q, space.dim
    flat = space.tensor.reshape(m, n * n)
    for c in range(m + 1):
        for coeffs in gf.subspace_matrices(m, m - c, q):
            sub = AltMatrixSpace.from_matrices((coeffs @ flat).reshape(m - c, n, n) % q, n, q)
            dec, w = is_orth_decomposable(sub)
            if dec:
                return c, sub, w
    raise AssertionError("unreachable")


def _oracle_spaces():
    # the graphs on at most 4 vertices with at most 4 edges: the literal lambda
    # oracle takes about a second on K4 - e and a minute on K4
    out = [space_from_graph(g, 3) for n in (2, 3, 4) for g in all_labeled_graphs(n) if g.m <= 4]
    out.append(AltMatrixSpace.zero(3, 3))
    rng = np.random.default_rng(47)
    for k in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(0, min(4, n * (n - 1) // 2) + 1))
        q = (3, 5)[k % 2] if n < 5 else 3  # the literal kappa oracle takes ~20 s on F_5^5
        out.append(random_alt_space(n, m, q, rng))
    return out


def _space_oracle_answers(sp):
    return kappa_space_bruteforce(sp), lambda_space_oracle(sp)


def test_batched_space_oracles_keep_value_and_witness():
    for sp in _oracle_spaces():
        assert kappa_space_bruteforce(sp) == _kappa_space_bruteforce_reference(sp), sp
        assert lambda_space_oracle(sp) == _lambda_space_oracle_reference(sp), sp


@pytest.mark.parametrize("chunk", [1, 2000])
def test_space_oracles_do_not_depend_on_chunk_size(monkeypatch, chunk):
    # 2000 entries hold 2 to 33 candidates on these levels, fewer than a level
    spaces = [space_from_graph(g, 3) for g in (graph_from_mask(4, 0b011111), cycle_graph(4), cycle_graph(5))]
    want = [_space_oracle_answers(sp) for sp in spaces]
    monkeypatch.setattr(altspace, "_ADJOINT_CHUNK", chunk)
    assert [_space_oracle_answers(sp) for sp in spaces] == want


# the guard on the number of lines: delta_space and is_fully_connected

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


def test_lines_guard_lifts_with_force():
    assert delta_space(LINES_PAST_GUARD, force=True)[0] == 1
    # n = 3 passes lambda_space's own guard, but F_83^3 has 83^2 + 83 + 1 = 6973 lines
    p3 = space_from_graph(path_graph(3), 83)
    with pytest.raises(GuardExceeded, match="lines=6973"):
        lambda_space(p3)
    assert lambda_space(p3, force=True).value == 1
    flag, (u, v) = is_fully_connected(LINES_PAST_GUARD, force=True)
    assert not flag and not ((u @ LINES_PAST_GUARD.tensor @ v) % 3).any()


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


@pytest.mark.parametrize("cells", [None, 1, 1000])
def test_streamed_full_connectivity_returns_the_first_pair(monkeypatch, cells):
    if cells is not None:
        monkeypatch.setattr(altspace, "_FULLCONN_CELLS", cells)
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
