"""Alternating bilinear maps: evaluation, restriction, quotient, kappa/lambda."""

import numpy as np
import pytest

from blt import altspace, bilinear, gf
from blt.altspace import (
    lambda_space,
    kappa_space,
    random_alt_space,
    space_from_graph,
)
from blt.bilinear import (
    AltBilinearMap,
    is_map_decomposable,
    is_surjective,
    kappa_map,
    lambda_map,
    map_from_json,
    map_from_space,
    map_to_json,
    quotient_map,
    restrict_map,
)
from blt.graphs import all_labeled_graphs, complete_graph, cycle_graph, disjoint_union, graph_from_mask, path_graph


def k2_map(q=3):
    return map_from_space(space_from_graph(complete_graph(2), q))


def test_map_evaluation_k2():
    phi = k2_map()
    assert phi(np.array([1, 0]), np.array([0, 1])).tolist() == [1]
    assert phi(np.array([0, 1]), np.array([1, 0])).tolist() == [2]  # antisymmetry
    assert phi(np.array([1, 1]), np.array([1, 1])).tolist() == [0]  # alternating


def test_map_bilinearity():
    phi = map_from_space(space_from_graph(cycle_graph(4), 3))
    rng = np.random.default_rng(0)
    for _ in range(20):
        u, v, w = rng.integers(0, 3, size=(3, 4))
        a = int(rng.integers(0, 3))
        lhs = phi((u + a * v) % 3, w)
        rhs = (phi(u, w) + a * phi(v, w)) % 3
        assert (lhs == rhs).all()


def test_from_matrices_rejects_non_alternating():
    with pytest.raises(ValueError):
        AltBilinearMap.from_matrices(np.array([[[0, 1], [1, 0]]]), 2, 3)


def test_surjectivity():
    assert is_surjective(k2_map())
    # a dependent list of matrices is not surjective onto its free codomain
    sp = space_from_graph(complete_graph(2), 3)
    A = sp.tensor[0]
    phi = AltBilinearMap.from_matrices(np.stack([A, (2 * A) % 3]), 2, 3)
    assert not is_surjective(phi)


def test_restrict_map_keeps_codomain():
    phi = map_from_space(space_from_graph(path_graph(3), 3))
    U = gf.Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3, 3)
    sub = restrict_map(phi, U)
    assert sub.n == 2 and sub.m == phi.m
    # values on U agree with the ambient map through the basis of U
    B = U.mat()
    u1, u2 = B[0], B[1]
    assert (sub(np.array([1, 0]), np.array([0, 1])) == phi(u1, u2)).all()
    with pytest.raises(ValueError):
        restrict_map(phi, gf.Subspace.zero(3, 3))


def test_quotient_by_zero_and_full():
    phi = map_from_space(space_from_graph(cycle_graph(4), 3))
    z = quotient_map(phi, gf.Subspace.zero(phi.m, 3))
    assert z.m == phi.m
    full = quotient_map(phi, gf.Subspace.full(phi.m, 3))
    assert full.m == 0
    dec, _ = is_map_decomposable(full)
    assert dec  # zero map decomposes


def test_quotient_collapses_values():
    phi = map_from_space(space_from_graph(cycle_graph(4), 3))
    X = gf.Subspace.line([1, 0, 0, 0], 3)
    qm = quotient_map(phi, X)
    assert qm.m == phi.m - 1
    # vectors whose phi-value lies in X map to zero downstairs
    rng = np.random.default_rng(1)
    for _ in range(40):
        u, v = rng.integers(0, 3, size=(2, 4))
        val = phi(u, v)
        down = qm(u, v)
        if (np.array([val[1], val[2], val[3]]) == 0).all():
            assert (down == 0).all()


@pytest.mark.parametrize(
    "g,kappa,lam",
    [
        (complete_graph(2), 1, 1),
        (path_graph(3), 1, 1),
        (complete_graph(3), 2, 2),
        (cycle_graph(4), 2, 2),
        (disjoint_union(complete_graph(2), complete_graph(2)), 0, 0),
    ],
)
def test_map_level_frozen_values(g, kappa, lam):
    phi = map_from_space(space_from_graph(g, 3))
    assert kappa_map(phi)[0] == kappa
    assert lambda_map(phi)[0] == lam


def test_map_matches_space_level_random():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(0, min(4, n * (n - 1) // 2) + 1))
        sp = random_alt_space(n, m, 3, rng)
        phi = map_from_space(sp)
        assert kappa_map(phi)[0] == kappa_space(sp)[0]
        assert lambda_map(phi)[0] == lambda_space(sp).value


def test_basis_order_independence():
    # kappa/lambda of the map cannot depend on which basis presents the space
    sp = space_from_graph(cycle_graph(4), 3)
    phi1 = map_from_space(sp)
    order = sp.tensor[::-1]  # reversed basis of the same space
    phi2 = AltBilinearMap.from_matrices(order, sp.n, sp.q)
    assert is_surjective(phi2) and phi2.span() == sp
    assert kappa_map(phi1)[0] == kappa_map(phi2)[0]
    assert lambda_map(phi1)[0] == lambda_map(phi2)[0]


def test_mixed_basis_still_same_space():
    sp = space_from_graph(complete_graph(3), 3)
    T = sp.tensor
    order = np.stack([(T[0] + T[1]) % 3, T[1], (T[2] + 2 * T[0]) % 3])
    phi = AltBilinearMap.from_matrices(order, sp.n, sp.q)
    assert is_surjective(phi) and phi.span() == sp
    assert kappa_map(phi)[0] == kappa_space(sp)[0]


def test_span_roundtrip():
    sp = space_from_graph(cycle_graph(4), 3)
    phi = map_from_space(sp)
    back = phi.span()
    assert back.dim == sp.dim
    joint = np.concatenate([sp.tensor.reshape(sp.dim, -1), back.tensor.reshape(back.dim, -1)])
    assert gf.rank_gf(joint, 3) == sp.dim


def test_json_roundtrip():
    phi = map_from_space(space_from_graph(path_graph(4), 5))
    phi2 = map_from_json(map_to_json(phi))
    assert phi2.n == phi.n and phi2.q == phi.q and phi2.m == phi.m
    assert (phi2.tensor == phi.tensor).all()


def test_json_rejects_bad_payload():
    with pytest.raises(ValueError, match="missing key"):
        map_from_json('{"q": 3, "n": 2, "matrices": []}')


# batched literal searches: the self-adjoint filter in front of the literal tests


@pytest.mark.parametrize("m,q", [(m, 3) for m in range(1, 5)] + [(m, 5) for m in range(1, 4)])
def test_closed_form_annihilators_span_the_nullspace(m, q):
    for c in range(m + 1):
        xs = gf.subspace_matrices(m, c, q)
        ann = gf.annihilator_matrices(xs, q)
        assert ann.shape == (len(xs), m - c, m)
        assert ((ann >= 0) & (ann < q)).all()
        for X, Y in zip(xs, ann):
            assert not ((X @ Y.T) % q).any()
            want = gf.Subspace.from_vectors(gf.nullspace(X, q), m, q)
            assert gf.Subspace.from_vectors(Y, m, q) == want and want.dim == m - c


def _kappa_map_reference(phi):
    """The literal one-at-a-time kappa search, no filter."""
    n, q = phi.n, phi.q
    for c in range(n):
        for u_rows in gf.subspace_matrices(n, n - c, q):
            U = gf.Subspace.from_vectors(np.array(u_rows), n, q)
            if is_map_decomposable(restrict_map(phi, U))[0]:
                return c, U
    raise AssertionError("unreachable")


def _lambda_map_reference(phi):
    """The literal one-at-a-time lambda search, no filter."""
    m, q = phi.m, phi.q
    if m == 0:
        return 0, gf.Subspace.zero(1, q)
    for c in range(m + 1):
        for x_rows in gf.subspace_matrices(m, c, q):
            X = gf.Subspace.from_vectors(np.array(x_rows), m, q)
            if is_map_decomposable(quotient_map(phi, X))[0]:
                return c, X
    raise AssertionError("unreachable")


def _random_maps():
    """Seeded maps with n = 1..4, q in {3, 5}, m = 0..4, a third of them with a
    dependent tuple."""
    rng = np.random.default_rng(29)
    out = []
    for k in range(36):
        n, q = 1 + k % 4, (3, 5)[k // 4 % 2]
        m = int(rng.integers(0, 5))
        upper = np.triu(rng.integers(0, q, size=(m, n, n)), k=1)
        mats = (upper - upper.transpose(0, 2, 1)) % q
        if m >= 2 and k % 3 == 0:
            mats[-1] = (2 * mats[0] + mats[1]) % q
        out.append(AltBilinearMap.from_matrices(mats.reshape(m, n, n), n, q))
    return out


def _random_n5_maps():
    """map_from_space of the n = 5 spaces among 30 seeded random spaces, all at
    q = 3 and m <= 4."""
    rng = np.random.default_rng(47)
    out = []
    for k in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(0, min(4, n * (n - 1) // 2) + 1))
        sp = random_alt_space(n, m, (3, 5)[k % 2] if n < 5 else 3, rng)
        if n == 5:
            out.append(map_from_space(sp))
    return out


GRAPH_MAPS = [
    map_from_space(space_from_graph(g, 3)) for n in (2, 3, 4) for g in all_labeled_graphs(n) if g.m < 6
]


def test_batched_map_searches_keep_value_and_witness():
    maps = GRAPH_MAPS + _random_maps() + _random_n5_maps()
    assert {phi.n for phi in maps} == {1, 2, 3, 4, 5} and 0 in {phi.m for phi in maps}
    assert any(phi.m > 0 and not is_surjective(phi) for phi in maps)
    for phi in maps:
        assert kappa_map(phi) == _kappa_map_reference(phi), phi
        # the literal lambda search takes 1.7 s on each of the six K4 - e; one is kept
        if phi.m < 5 or phi is GRAPH_MAPS[-1]:
            assert lambda_map(phi) == _lambda_map_reference(phi), phi


@pytest.mark.parametrize("chunk", [1, 2000])
def test_map_searches_do_not_depend_on_chunk_size(monkeypatch, chunk):
    # 2000 entries hold 2 to 33 candidates on these levels, fewer than a level
    graphs = (cycle_graph(4), path_graph(4), cycle_graph(5), graph_from_mask(4, 0b011111))
    maps = [map_from_space(space_from_graph(g, 3)) for g in graphs]
    maps += [GRAPH_MAPS[-1]] + _random_maps()[::5]
    want = [(kappa_map(phi), lambda_map(phi)) for phi in maps]
    monkeypatch.setattr(altspace, "_ADJOINT_CHUNK", chunk)
    assert [(kappa_map(phi), lambda_map(phi)) for phi in maps] == want


def test_c4_reaches_one_restriction_and_one_quotient(monkeypatch):
    # the literal searches without the filter take 123 restrictions and 42 quotients
    calls = {"restrict_map": 0, "quotient_map": 0}
    for name in calls:
        original = getattr(bilinear, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(bilinear, name, counting)
    phi = map_from_space(space_from_graph(cycle_graph(4), 3))
    assert kappa_map(phi)[0] == 2 and lambda_map(phi)[0] == 2
    assert calls == {"restrict_map": 1, "quotient_map": 1}
