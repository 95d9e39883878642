"""Literal Cayley-table oracle: subgroup lattice, central products, quotients.

Everything here works from the multiplication table alone, so agreement with
the structured solvers in test_group.py is meaningful cross-validation.
"""

import numpy as np
import pytest

from blt import gf, lattice
from blt.altspace import GuardExceeded
from blt.graphs import Graph, complete_graph, disjoint_union, path_graph
from blt.group import BaerGroup, group_from_graph, kappa_group, lambda_group
from blt.lattice import (
    SmallGroup,
    all_subgroups,
    center_indices,
    check_associativity_exhaustive,
    check_associativity_sampled,
    check_exponent,
    closure,
    derived_subgroup,
    element_index,
    is_abelian_set,
    literal_centrally_decomposable,
    literal_kappa,
    literal_lambda,
    quotient_by_central,
    small_group,
    subgroup_of,
)


@pytest.fixture(scope="module")
def sg27():
    return small_group(group_from_graph(complete_graph(2), 3))


@pytest.fixture(scope="module")
def P81():
    return group_from_graph(Graph(3, frozenset({(0, 1)})), 3)


def test_table_shape_and_identity(sg27):
    assert sg27.order == 27
    assert (sg27.mul[0] == np.arange(27)).all()
    assert (sg27.mul[:, 0] == np.arange(27)).all()
    assert (sg27.mul[np.arange(27), sg27.inv] == 0).all()


def test_table_is_latin_square(sg27):
    for row in sg27.mul:
        assert len(set(row.tolist())) == 27
    for col in sg27.mul.T:
        assert len(set(col.tolist())) == 27


@pytest.mark.parametrize("P", [group_from_graph(complete_graph(2), 3), group_from_graph(Graph(3, frozenset({(0, 1)})), 3),
                               group_from_graph(complete_graph(2), 5)], ids=["27", "81", "125"])
def test_table_is_the_multiply_table(P):
    els = list(P.all_elements())
    index = {g: i for i, g in enumerate(els)}
    ref = np.array([[index[P.multiply(g, h)] for h in els] for g in els])
    sg = small_group(P)
    assert sg.labels == tuple((g.v, g.u) for g in els)
    assert (sg.mul == ref).all()


def test_multiply_and_table_share_one_law(monkeypatch):
    # dropping the h phi(v1, v2) term from BaerGroup.law makes both abelian
    P = group_from_graph(path_graph(3), 3)
    els = list(P.all_elements())
    pairs = [(g, h) for g in els[::7] for h in els]
    sg = small_group(P)
    assert not (sg.mul == sg.mul.T).all()
    assert not all(P.multiply(g, h) == P.multiply(h, g) for g, h in pairs)
    monkeypatch.setattr(BaerGroup, "law", lambda self, v1, u1, v2, u2: ((v1 + v2) % self.p, (u1 + u2) % self.p))
    assert all(P.multiply(g, h) == P.multiply(h, g) for g, h in pairs)
    sg = small_group(P)
    assert (sg.mul == sg.mul.T).all()


def test_axioms(sg27):
    assert check_associativity_exhaustive(sg27)
    assert check_exponent(sg27, 3)
    rng = np.random.default_rng(0)
    assert check_associativity_sampled(sg27, rng, 5000)


def test_corrupted_table_fails_associativity(sg27):
    bad_mul = sg27.mul.copy()
    bad_mul[5, 7] = (bad_mul[5, 7] + 1) % 27
    bad = SmallGroup(sg27.labels, bad_mul, sg27.inv)
    assert not check_associativity_exhaustive(bad)


def test_element_index_roundtrip(sg27):
    P = group_from_graph(complete_graph(2), 3)
    g = P.element([1, 2], [1])
    idx = element_index(P, g)
    assert sg27.labels[idx] == (tuple(g.v), tuple(g.u))


def test_closure():
    P = group_from_graph(complete_graph(2), 3)
    sg = small_group(P)
    # a noncentral element generates 3 elements; two independent ones generate P
    a = element_index(P, P.element([1, 0], [0]))
    b = element_index(P, P.element([0, 1], [0]))
    assert len(closure(sg.mul, [a])) == 3
    assert len(closure(sg.mul, [a, b])) == 27
    assert closure(sg.mul, []) == (0,)


def test_center_indices(sg27):
    P = group_from_graph(complete_graph(2), 3)
    zc = center_indices(sg27)
    assert len(zc) == 3
    for i in zc:
        assert sg27.labels[i][0] == (0, 0)


def test_subgroup_count_heisenberg(sg27):
    subs = all_subgroups(sg27)
    # trivial + 13 of order 3 + 4 of order 9 + whole group
    assert len(subs) == 19
    sizes = sorted(len(s) for s in subs)
    assert sizes == [1] + [3] * 13 + [9] * 4 + [27]
    for s in subs:
        assert subgroup_of(sg27, s)


def test_derived_subgroup(sg27):
    D = derived_subgroup(sg27, range(27))
    assert len(D) == 3
    # abelian subgroup: trivial derived subgroup
    some9 = next(s for s in all_subgroups(sg27) if len(s) == 9)
    assert is_abelian_set(sg27, some9)
    assert derived_subgroup(sg27, some9) == (0,)


def test_quotient_by_center_is_abelian(sg27):
    zc = center_indices(sg27)
    q = quotient_by_central(sg27, zc)
    assert q.order == 9
    assert check_associativity_exhaustive(q)
    assert is_abelian_set(q, range(9))
    # rank-2 abelian quotient decomposes genuinely
    assert literal_centrally_decomposable(q)[0]


def test_quotient_rejects_noncentral(sg27):
    # an order-3 subgroup outside the center is not normal-central
    noncentral = next(
        s for s in all_subgroups(sg27) if len(s) == 3 and set(s) != set(center_indices(sg27))
    )
    with pytest.raises(ValueError):
        quotient_by_central(sg27, noncentral)


def test_literal_decomposability():
    # extraspecial 27: indecomposable
    P = group_from_graph(complete_graph(2), 3)
    assert not literal_centrally_decomposable(small_group(P))[0]
    # an isolated vertex adds a direct C_3 factor: decomposable
    P81 = group_from_graph(Graph(3, frozenset({(0, 1)})), 3)
    dec, pair = literal_centrally_decomposable(small_group(P81))
    assert dec
    J, K = pair
    assert len(J) > 1 and len(K) > 1


def test_cyclic_convention():
    # cyclic (here: order-3) groups count as decomposable by convention
    P = group_from_graph(complete_graph(2), 3)
    sg = small_group(P)
    zc = center_indices(sg)
    sub_table_idx = {g: i for i, g in enumerate(zc)}
    mul = np.array([[sub_table_idx[sg.mul[a, b]] for b in zc] for a in zc])
    inv = np.array([sub_table_idx[sg.inv[g]] for g in zc])
    c3 = SmallGroup(tuple(sg.labels[i] for i in zc), mul, inv)
    assert literal_centrally_decomposable(c3)[0]


def test_literal_kappa_lambda_order27(sg27):
    P = group_from_graph(complete_graph(2), 3)
    assert literal_kappa(P) == kappa_group(P).value == 1
    assert literal_lambda(P) == lambda_group(P).value == 1
    # the unrestricted quotient scan gives the same lambda
    assert literal_lambda(P, within_commutator=False) == 1


def test_literal_kappa_lambda_order81(P81):
    assert literal_kappa(P81) == kappa_group(P81).value == 0
    assert literal_lambda(P81) == lambda_group(P81).value == 0
    assert literal_lambda(P81, within_commutator=False) == 0


def test_order_guard():
    P = group_from_graph(disjoint_union(complete_graph(2), complete_graph(2)), 3)
    with pytest.raises(GuardExceeded):
        small_group(P)  # 729 > gf.TABLE_GUARD_ORDER = 3^5
    with pytest.raises(GuardExceeded):
        literal_kappa(P)


def test_lattice_guards_refuse_one_past_budget(monkeypatch):
    P = group_from_graph(path_graph(3), 3)
    assert P.order == 3 * gf.LATTICE_GUARD_ORDER <= gf.TABLE_GUARD_ORDER
    sg = small_group(P)

    def started(*args, **kwargs):
        raise AssertionError("ran past the lattice guard")

    monkeypatch.setattr(lattice, "closure", started)
    with pytest.raises(GuardExceeded, match="--force"):
        all_subgroups(sg)
    monkeypatch.setattr(lattice, "small_group", started)  # refused before the Cayley table
    with pytest.raises(GuardExceeded, match="--force"):
        literal_lambda(P)
