"""Baer groups: the group law, subgroup machinery, degrees, kappa/lambda."""

import tracemalloc

import numpy as np
import pytest

from blt import gf, group
from blt.altspace import GuardExceeded, degree_vector, kappa_gt_lambda_instance, random_alt_space, space_from_graph
from blt.bilinear import map_from_space
from blt.graphs import (
    Graph,
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_connectivity,
    graph_from_mask,
    path_graph,
    star_graph,
    vertex_connectivity,
)
from blt.group import (
    baer_group,
    center,
    commutator_map,
    commutator_subgroup,
    decomposition_factors,
    deg_element,
    delta_group,
    group_from_graph,
    group_from_json,
    group_to_json,
    is_centrally_decomposable,
    is_regular,
    kappa_group,
    lambda_group,
    phi_image_span,
    regular_subgroup,
    standard_subgroup,
)


@pytest.fixture(scope="module")
def P27():
    return group_from_graph(complete_graph(2), 3)


def test_order_and_shape(P27):
    assert (P27.n, P27.m, P27.order) == (2, 1, 27)
    P = group_from_graph(cycle_graph(4), 5)
    assert P.order == 5**8


def test_rejects_even_modulus():
    with pytest.raises(ValueError):
        group_from_graph(complete_graph(2), 2)


def test_group_axioms_exhaustive(P27):
    els = list(P27.all_elements())
    assert len(els) == 27
    e = P27.identity
    for g in els:
        assert P27.multiply(g, e) == g == P27.multiply(e, g)
        assert P27.multiply(g, P27.inverse(g)) == e
    for g in els:
        for h in els:
            for k in els:
                gh_k = P27.multiply(P27.multiply(g, h), k)
                g_hk = P27.multiply(g, P27.multiply(h, k))
                assert gh_k == g_hk


def test_exponent_p(P27):
    for g in P27.all_elements():
        assert P27.multiply(P27.multiply(g, g), g) == P27.identity


def test_commutator_is_phi_value():
    P = group_from_graph(cycle_graph(4), 3)
    rng = np.random.default_rng(2)
    for _ in range(25):
        v1, v2 = rng.integers(0, 3, size=(2, 4))
        u1, u2 = rng.integers(0, 3, size=(2, 4))
        g = P.element(v1, u1)
        h = P.element(v2, u2)
        c = P.commutator(g, h)
        assert c.v == (0,) * 4
        assert (np.array(c.u) == P.phi(v1, v2)).all()


def test_center_and_commutator_subgroup(P27):
    Z = center(P27)
    D = commutator_subgroup(P27)
    assert Z.order(3) == 3 and D.order(3) == 3
    assert Z.U.dim == 0 and Z.X.dim == 1  # nondegenerate map: center = [P,P]
    # class 2: commutators are central
    assert Z.X.contains_space(D.X) and Z.U.contains_space(D.U)


def test_center_grows_with_radical():
    # K_2 plus an isolated vertex: the radical line joins the center
    P = group_from_graph(Graph(3, frozenset({(0, 1)})), 3)
    Z = center(P)
    assert Z.U.dim == 1 and Z.X.dim == 1
    assert Z.order(3) == 9


def test_abelianization_rank(P27):
    D = commutator_subgroup(P27)
    assert P27.order // D.order(3) == 3**P27.n


def test_standard_subgroup_validates():
    P = group_from_graph(complete_graph(2), 3)
    U = gf.Subspace.full(2, 3)
    with pytest.raises(ValueError):
        standard_subgroup(P, U, gf.Subspace.zero(1, 3))  # phi(U,U) not inside X


def test_regular_subgroup_abelianization():
    # |S_U / [S_U, S_U]| = p^dim U for every U
    P = group_from_graph(cycle_graph(4), 3)
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        rows = rng.integers(0, 3, size=(k, 4))
        U = gf.Subspace.from_vectors(rows, 4, 3)
        if U.dim == 0:
            continue
        S = regular_subgroup(P, U)
        com = phi_image_span(P, U)
        assert S.order(3) == 3 ** (U.dim + com.dim)
        assert is_regular(P, S)
        assert S.order(3) // 3**com.dim == 3**U.dim


def test_non_regular_subgroup():
    # U x X with X strictly above phi(U, U) fails [S,S] = S meet [P,P]
    P = group_from_graph(complete_graph(2), 3)
    U = gf.Subspace.line([1, 0], 3)
    S = standard_subgroup(P, U, gf.Subspace.full(1, 3))
    assert not is_regular(P, S)


def test_deg_element_frozen(P27):
    assert deg_element(P27, P27.element([1, 0], [0])) == 1
    assert deg_element(P27, P27.identity) == 0
    # central element: degree 0
    assert deg_element(P27, P27.element([0, 0], [1])) == 0


def test_deg_element_matches_rank_method():
    # the centralizer count against rank(phi(v_g, .)) on the span of phi
    groups = [group_from_graph(cycle_graph(4), 3)] + [P for _, P in _equivalence_groups() if P.p == 5]
    assert len(groups) == 8
    rng = np.random.default_rng(9)
    for P in groups:
        for _ in range(15):
            v = rng.integers(0, P.p, size=P.n)
            u = rng.integers(0, P.p, size=P.m)
            g = P.element(v, u)
            assert deg_element(P, g) == degree_vector(P.phi.span(), g.v), (P, g)


def test_deg_independent_of_central_part():
    P = group_from_graph(star_graph(3), 3)
    rng = np.random.default_rng(13)
    for _ in range(10):
        v = rng.integers(0, 3, size=4)
        u1, u2 = rng.integers(0, 3, size=(2, 3))
        assert deg_element(P, P.element(v, u1)) == deg_element(P, P.element(v, u2))


def test_deg_bounded_by_n_minus_one():
    for g in all_labeled_graphs(3):
        P = group_from_graph(g, 3)
        for el in P.all_elements():
            assert deg_element(P, el) <= P.n - 1


def test_delta_group_frozen():
    assert delta_group(group_from_graph(star_graph(3), 3))[0] == 1
    d, w = delta_group(group_from_graph(cycle_graph(4), 3))
    assert d == 2
    assert deg_element(group_from_graph(cycle_graph(4), 3), w) == 2


def test_decomposable_examples():
    P = group_from_graph(disjoint_union(complete_graph(2), complete_graph(2)), 3)
    dec, pair = is_centrally_decomposable(P)
    assert dec
    J, K = decomposition_factors(P, pair)
    # the two factors generate P and commute elementwise by construction
    assert pair[0].sum_with(pair[1]).dim == P.n
    assert J.order(3) * K.order(3) % P.order == 0
    P2 = group_from_graph(complete_graph(2), 3)
    dec2, _ = is_centrally_decomposable(P2)
    assert not dec2


def test_decomposition_factor_cross_commutes():
    P = group_from_graph(disjoint_union(complete_graph(2), complete_graph(2)), 3)
    dec, pair = is_centrally_decomposable(P)
    UJ, UK = pair
    # phi vanishes across the factors, so (v,0) pairs commute
    for vj in UJ.mat():
        for vk in UK.mat():
            assert (P.phi(vj, vk) == 0).all()


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(2),
        path_graph(3),
        complete_graph(3),
        Graph(3, frozenset({(0, 1)})),
        disjoint_union(complete_graph(2), complete_graph(2)),
    ],
)
def test_group_parameters_match_graph(g):
    P = group_from_graph(g, 3)
    kr = kappa_group(P)
    lr = lambda_group(P)
    assert kr.value == vertex_connectivity(g)[0]
    assert lr.value == edge_connectivity(g)[0]
    # witnesses: the kappa subgroup is regular, the lambda quotient is central
    assert is_regular(P, kr.subgroup)
    assert lr.quotient_by.U.dim == 0


def test_kappa_group_fast_path_matches():
    k4_minus = Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}))
    for g in (cycle_graph(4), k4_minus, star_graph(4)):
        P = group_from_graph(g, 3)
        kr = kappa_group(P, method="fast", force=True)
        lr = lambda_group(P, method="fast", force=True)
        assert kr.value == vertex_connectivity(g)[0]
        assert lr.value == edge_connectivity(g)[0]


def test_structured_guard():
    P = group_from_graph(cycle_graph(4), 3)  # exponent 8 > 6
    with pytest.raises(GuardExceeded, match="--force"):
        kappa_group(P)
    with pytest.raises(GuardExceeded):
        lambda_group(P)


def test_delta_guard():
    P = group_from_graph(Graph(7, frozenset({(0, 1)})), 3)
    with pytest.raises(GuardExceeded):
        delta_group(P)


def test_decomposability_guard_refuses_one_past_budget(monkeypatch):
    P = group_from_graph(path_graph(4), 3)  # n + m = 7
    assert P.n + P.m == gf.GROUP_GUARD_EXP + 1

    def started(*args, **kwargs):
        raise AssertionError("the pair search ran past the guard")

    monkeypatch.setattr(group, "_pair_decomposable", started)
    with pytest.raises(GuardExceeded, match="--force"):
        is_centrally_decomposable(P)


# -- the pair table against the per-X scan ------------------------------------


def _reference_pair_search(P, ambient, X):
    """The original per-U_J pair search, kept as the reference: first direct
    pair (a ascending, U_J, then U_K in subspace_matrices order) with every
    cross value phi(x, y) inside X."""
    d, p = ambient.dim, P.p
    if d == 1:
        return True, None
    B = ambient.mat()
    for a in range(1, d // 2 + 1):
        b = d - a
        j_stack = (gf.subspace_matrices(d, a, p) @ B) % p
        k_stack = (gf.subspace_matrices(d, b, p) @ B) % p
        for j_idx in range(len(j_stack)):
            J = j_stack[j_idx]
            ks = k_stack[j_idx:] if a == b else k_stack
            stacked = np.concatenate([np.broadcast_to(J, (len(ks), a, P.n)), ks], axis=1)
            direct = gf.rank_batched(stacked, p, cap=d) == d
            cross = np.einsum("ai,kij,Nbj->Nabk", J, P.phi.tensor, ks) % p
            resid = gf.reduce_mod_rowspace(cross.reshape(-1, P.m), X.mat(), p)
            clean = ~resid.reshape(len(ks), -1).any(axis=1)
            hits = np.flatnonzero(direct & clean)
            if hits.size:
                U_J = gf.Subspace.from_vectors(J, P.n, p)
                return True, (U_J, gf.Subspace.from_vectors(ks[hits[0]], P.n, p))
    return False, None


def _reference_lambda(P):
    """The original per-X loop of lambda_group: X by dim, then canonical order."""
    full = gf.Subspace.full(P.n, P.p)
    for s in range(P.m + 1):
        for x_rows in gf.subspace_matrices(P.m, s, P.p):
            X = gf.Subspace.from_vectors(x_rows.reshape(s, P.m), P.m, P.p)
            found, pair = _reference_pair_search(P, full, X)
            if found:
                return s, X, pair
    raise AssertionError("unreachable: X = F^m always admits a pair")


def _reference_kappa(P):
    """The original per-U loop of the structured kappa_group, with no filter."""
    zero = gf.Subspace.zero(P.m, P.p)
    for s in range(P.n):
        for basis in gf.subspace_matrices(P.n, P.n - s, P.p):
            U = gf.Subspace.from_vectors(basis, P.n, P.p)
            found, pair = _reference_pair_search(P, U, zero)
            if found:
                return s, U, pair
    raise AssertionError("unreachable: a 1-dimensional U decomposes by convention")


def _equivalence_groups():
    out = [
        (f"n{n}e{mask}", group_from_graph(graph_from_mask(n, mask), 3))
        for n in (2, 3, 4)
        for mask in range(1, 1 << (n * (n - 1) // 2))
        if n + bin(mask).count("1") <= 7
    ]
    out.append(("separation", baer_group(map_from_space(kappa_gt_lambda_instance(2, 2, 3)), 3)))
    rng = np.random.default_rng(7)
    for i in range(14):
        p = (3, 5)[i % 2]
        n = int(rng.integers(2, 5 if p == 3 or i == 13 else 4))  # one n = 4 at p = 5: 0.7 s each
        m = int(rng.integers(1, min(n * (n - 1) // 2, (7 if p == 3 else 6) - n) + 1))
        out.append((f"random{i}-n{n}m{m}p{p}", baer_group(map_from_space(random_alt_space(n, m, p, rng)), p)))
    return out


@pytest.mark.parametrize("chunk", [1, 2**20])
def test_pair_blocks_list_each_direct_pair_once_in_canonical_order(monkeypatch, chunk):
    monkeypatch.setattr(group, "_PAIR_CHUNK", chunk)
    K4 = group_from_graph(complete_graph(4), 3)
    cases = [
        (K4, gf.Subspace.full(4, 3)),
        (K4, gf.Subspace.from_vectors([[1, 0, 0, 1], [0, 1, 2, 0], [0, 0, 1, 1]], 4, 3)),
        (group_from_graph(path_graph(3), 5), gf.Subspace.full(3, 5)),
    ]
    for P, ambient in cases:
        d, p = ambient.dim, P.p
        stride = 1 if d < 4 else 97  # every pair below d = 4, a sample of the 6345 at d = 4
        seen = []
        for a, js, ks, cross in group._pair_blocks(P, ambient):
            seen += [(a, int(j), int(k)) for j, k in zip(js, ks)]
            for j, k, c in list(zip(js, ks, cross))[::stride]:
                U_J, U_K = group._pair_subspaces(P, ambient, a, int(j), int(k))
                assert U_J.sum_with(U_K) == ambient and U_J.dim == a
                want = [P.phi(x, y) for x in U_J.mat() for y in U_K.mat()]
                assert gf.Subspace.from_vectors(c, P.m, p) == gf.Subspace.from_vectors(want, P.m, p)
        assert seen == sorted(set(seen))
        # U_J has p^(a (d - a)) complements; at a = d - a each pair is listed once
        count = sum(
            gf.gaussian_binomial(d, a, p) * p ** (a * (d - a)) // (2 if 2 * a == d else 1)
            for a in range(1, d // 2 + 1)
        )
        assert len(seen) == count


@pytest.fixture(scope="module")
def lambda_reference():
    return [(name, P, _reference_lambda(P)) for name, P in _equivalence_groups()]


@pytest.mark.parametrize("chunk", [1, 2**20])
def test_lambda_group_matches_the_per_x_scan(monkeypatch, lambda_reference, chunk):
    monkeypatch.setattr(group, "_PAIR_CHUNK", chunk)
    values = set()
    for name, P, (s, X, pair) in lambda_reference:
        res = lambda_group(P, force=True)
        assert (res.value, res.quotient_by.X, res.pair) == (s, X, pair), name
        values.add(s)
    assert values == {0, 1, 2}  # the level-0 exit, and the least span at s = 1 and at s = 2


def test_kappa_group_matches_the_per_u_scan():
    for name, P in _equivalence_groups():
        k = kappa_group(P, force=True)
        assert (k.value, k.subgroup.U, k.pair) == _reference_kappa(P), name


@pytest.mark.parametrize("g", [complete_graph(4), cycle_graph(4), path_graph(4)], ids=["K4", "C4", "P4"])
def test_kappa_group_runs_the_pair_search_once(monkeypatch, g):
    # the self-adjoint filter skips every U before the first hit (172, 123 and 29 pair searches unfiltered)
    P = group_from_graph(g, 3)
    want = _reference_kappa(P)
    calls = []
    pair_search = group._pair_decomposable

    def counted(*args):
        calls.append(args)
        return pair_search(*args)

    monkeypatch.setattr(group, "_pair_decomposable", counted)
    k = kappa_group(P, force=True)
    assert len(calls) == 1
    assert (k.value, k.subgroup.U, k.pair) == want
    assert k.value == vertex_connectivity(g)[0]


def test_group_level_closes_at_four_vertices():
    # lambda(P_G) = lambda(G) and kappa(P_G) = kappa(G) on every labeled graph on 2..4 vertices
    for n in (2, 3, 4):
        for g in all_labeled_graphs(n):
            if not g.edges:
                continue
            P = group_from_graph(g, 3)
            assert kappa_group(P, force=True).value == vertex_connectivity(g)[0], g
            assert lambda_group(P, force=True).value == edge_connectivity(g)[0], g


def test_k4_lambda_group_witness():
    P = group_from_graph(complete_graph(4), 3)
    res = lambda_group(P, force=True)
    e = np.eye(6, dtype=np.int64)
    assert res.value == 3
    assert res.quotient_by.X == gf.Subspace.from_vectors(e[:3], 6, 3)
    U_J, U_K = res.pair
    assert U_J == gf.Subspace.from_vectors([[1, 0, 0, 0]], 4, 3)
    assert U_K == gf.Subspace.from_vectors([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], 4, 3)
    assert U_J.sum_with(U_K).dim == 4
    assert all(res.quotient_by.X.contains(P.phi(x, y)) for x in U_J.mat() for y in U_K.mat())


def test_lambda_group_never_enumerates_the_codomain(monkeypatch):
    # K4 has m = 6: the X come off the pair spans, with no walk over subspaces of F^6
    subspace_matrices = group.subspace_matrices

    def ambient_only(n, k, q):
        if n == 6:
            raise AssertionError(f"subspace_matrices({n}, {k}, {q}) walks the codomain")
        return subspace_matrices(n, k, q)

    def refuse(*args):
        raise AssertionError("annihilator_matrices called")

    monkeypatch.setattr(group, "subspace_matrices", ambient_only)
    monkeypatch.setattr(gf, "annihilator_matrices", refuse)
    test_k4_lambda_group_witness()


def test_forced_lambda_group_at_five_vertices():
    g = cycle_graph(5)
    P = group_from_graph(g, 3)
    tracemalloc.start()
    try:
        res = lambda_group(P, force=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value == edge_connectivity(g)[0] == 2
    X = res.quotient_by.X
    U_J, U_K = res.pair
    assert X.dim == 2
    assert U_J.dim + U_K.dim == 5 and U_J.sum_with(U_K) == gf.Subspace.full(5, 3)
    assert all(X.contains(P.phi(x, y)) for x in U_J.mat() for y in U_K.mat())
    J, K = decomposition_factors(P, res.pair, X)
    assert (J.U, K.U) == res.pair and J.X.contains_space(X) and K.X.contains_space(X)
    assert peak < 32 * 2**20  # no table of all 891891 direct pairs, no level of subspaces of F^5


def test_commutator_map_roundtrip():
    P = group_from_graph(path_graph(3), 3)
    phi2 = commutator_map(P)
    assert phi2.n == P.n and phi2.m == P.m
    rng = np.random.default_rng(21)
    for _ in range(15):
        v1, v2 = rng.integers(0, 3, size=(2, 3))
        g, h = P.element(v1, [0, 0]), P.element(v2, [0, 0])
        c = P.commutator(g, h)
        assert (np.array(c.u) == phi2(v1, v2)).all()


def test_group_built_from_commutator_map_is_same_group():
    P = group_from_graph(path_graph(3), 3)
    P2 = baer_group(commutator_map(P), 3)
    assert P2.order == P.order
    assert kappa_group(P2).value == kappa_group(P).value


def test_json_roundtrip():
    P = group_from_graph(cycle_graph(4), 5)
    P2 = group_from_json(group_to_json(P))
    assert P2.p == 5 and P2.n == P.n and P2.m == P.m
    assert (P2.phi.tensor == P.phi.tensor).all()
