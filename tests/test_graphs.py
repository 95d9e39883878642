"""Graph parsing and the three connectivity parameters."""

import numpy as np
import pytest

from blt.graphs import (
    Graph,
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_connectivity,
    edge_connectivity_bruteforce,
    format_graph,
    graph_from_mask,
    graph_mask,
    min_degree,
    parse_graph,
    path_graph,
    star_graph,
    vertex_connectivity,
)


def test_parse_roundtrip():
    g = cycle_graph(5)
    assert parse_graph(format_graph(g)) == g


def test_parse_comments_and_blanks():
    text = "# a square\n4 4\n\n1 2\n2 3\n3 4\n4 1  # closing edge\n"
    g = parse_graph(text)
    assert g == cycle_graph(4)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("", "header"),
        ("2", "header"),
        ("2 1\n1 x", "non-integer"),
        ("1 1\n1 1", "n >= 2"),
        ("3 0", "m >= 1"),
        ("3 2\n1 2", "endpoint tokens"),
        ("3 1\n1 4", "out of range"),
        ("3 1\n2 2", "self-loop"),
        ("3 2\n1 2\n2 1", "duplicate"),
    ],
)
def test_parse_errors(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_graph(text)


@pytest.mark.parametrize(
    "g,kappa,lam,delta",
    [
        (path_graph(4), 1, 1, 1),
        (cycle_graph(4), 2, 2, 2),
        (cycle_graph(5), 2, 2, 2),
        (complete_graph(4), 3, 3, 3),
        (complete_graph(5), 4, 4, 4),
        (star_graph(3), 1, 1, 1),
        (disjoint_union(complete_graph(2), complete_graph(2)), 0, 0, 1),
        (disjoint_union(complete_graph(3), complete_graph(2)), 0, 0, 1),
    ],
)
def test_frozen_parameter_values(g, kappa, lam, delta):
    assert vertex_connectivity(g)[0] == kappa
    assert edge_connectivity(g)[0] == lam
    assert min_degree(g) == delta


def test_vertex_witness_separates():
    g = path_graph(5)
    k, sep = vertex_connectivity(g)
    assert k == 1 and len(sep) == 1
    # removing the separator disconnects
    remaining = [v for v in range(g.n) if v not in sep]
    h_edges = [e for e in g.edges if sep[0] not in e]
    relabel = {v: i for i, v in enumerate(remaining)}
    h = Graph.from_edges(len(remaining), [(relabel[a], relabel[b]) for a, b in h_edges])
    assert vertex_connectivity(h)[0] == 0


def test_edge_witness_cuts():
    g = cycle_graph(4)
    lam, cut = edge_connectivity(g)
    assert lam == 2 and len(cut) == 2
    h = Graph.from_edges(g.n, [e for e in g.edges if e not in set(cut)])
    assert edge_connectivity(h)[0] == 0


def _check_against_networkx(g):
    """Values equal networkx's; each witness has the value's size and disconnects g."""
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    kappa, sep = vertex_connectivity(g)
    lam, cut = edge_connectivity(g)
    assert kappa == nx.node_connectivity(G), g
    assert lam == nx.edge_connectivity(G), g
    if kappa == 0:
        assert sep == () and cut == () and not nx.is_connected(G), g
        return
    if sep is None:
        assert g.is_complete() and kappa == g.n - 1, g
    else:
        assert len(sep) == kappa and not nx.is_connected(G.subgraph(set(range(g.n)) - set(sep))), g
    H = G.copy()
    H.remove_edges_from(cut)
    assert len(cut) == lam and not nx.is_connected(H), g


def test_flow_vs_bruteforce_exhaustive_small():
    # every labeled graph with n <= 5 against networkx and the edge brute force
    for n in (2, 3, 4, 5):
        for g in all_labeled_graphs(n):
            _check_against_networkx(g)
            assert edge_connectivity(g)[0] == edge_connectivity_bruteforce(g)[0], g


def test_flow_vs_bruteforce_n5_sample():
    # the values are invariants of the graph: a random relabelling keeps them
    rng = np.random.default_rng(42)
    for mask in rng.integers(1, 1 << 10, size=120):
        g = graph_from_mask(5, int(mask))
        perm = rng.permutation(5)
        h = Graph.from_edges(5, [(int(perm[u]), int(perm[v])) for u, v in g.edges])
        assert vertex_connectivity(h)[0] == vertex_connectivity(g)[0], g
        assert edge_connectivity(h)[0] == edge_connectivity(g)[0], g
        assert edge_connectivity_bruteforce(h)[0] == edge_connectivity(g)[0], g


def test_connectivity_matches_networkx_on_seeded_graphs_of_six_to_eight_vertices():
    rng = np.random.default_rng(31)
    for n in (6, 7, 8):
        for mask in rng.integers(1, 1 << (n * (n - 1) // 2), size=100):
            _check_against_networkx(graph_from_mask(n, int(mask)))


def test_connectivity_witnesses_are_pinned():
    # the lexicographically first least separator, and the cut of the first
    # least bipartition S containing vertex 0 in increasing bitmask order
    k4_minus_edge = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert vertex_connectivity(cycle_graph(5)) == (2, (0, 2))
    assert edge_connectivity(cycle_graph(5)) == (2, ((0, 1), (0, 4)))
    assert vertex_connectivity(path_graph(4)) == (1, (1,))
    assert edge_connectivity(path_graph(4)) == (1, ((0, 1),))
    assert vertex_connectivity(k4_minus_edge) == (2, (2, 3))
    assert edge_connectivity(k4_minus_edge) == (2, ((0, 2), (0, 3)))
    assert vertex_connectivity(complete_graph(4)) == (3, None)
    # vertex 0 is the hub, so the first least S is {0, 1, 2}, not a leaf
    assert edge_connectivity(star_graph(3)) == (1, ((0, 3),))


def test_whitney_inequalities_hold_everywhere():
    # kappa <= lambda <= delta, the classical chain
    for g in all_labeled_graphs(4):
        k = vertex_connectivity(g)[0]
        l = edge_connectivity(g)[0]
        d = min_degree(g)
        assert k <= l <= d


def test_mask_roundtrip():
    for n in (3, 4, 5):
        for mask in (1, 5, (1 << (n * (n - 1) // 2)) - 1):
            assert graph_mask(graph_from_mask(n, mask)) == mask
    with pytest.raises(ValueError):
        graph_from_mask(4, 0)
    with pytest.raises(ValueError):
        graph_from_mask(4, 1 << 6)


def test_all_labeled_graphs_counts():
    assert sum(1 for _ in all_labeled_graphs(3)) == 7
    assert sum(1 for _ in all_labeled_graphs(4)) == 63
    assert sum(1 for _ in all_labeled_graphs(5)) == 1023


def test_builders():
    assert len(path_graph(4).edges) == 3
    assert len(cycle_graph(4).edges) == 4
    assert len(complete_graph(5).edges) == 10
    assert len(star_graph(4).edges) == 4
    u = disjoint_union(path_graph(2), path_graph(3))
    assert u.n == 5 and len(u.edges) == 3
