"""Simple undirected graphs and exact connectivity parameters.

Vertices are 0-indexed internally; the text edge-list format is 1-indexed.
Two independent solver families are provided for the vertex and edge
connectivity numbers kappa and lambda:

* brute force over removal subsets, ascending size (the reference oracle), and
* max-flow / Menger counting of disjoint paths.

Disconnected graphs have kappa = lambda = 0.  Complete graphs cannot be
disconnected by vertex removal, so kappa(K_n) = n - 1 by the usual convention
(consistent with removing down to a single vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on n >= 2 vertices with at least one edge."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("graph needs at least 2 vertices")
        if not self.edges:
            raise ValueError("graph needs at least one edge")
        for e in self.edges:
            i, j = e
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad edge {e} for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        norm = frozenset((min(i, j), max(i, j)) for i, j in edges)
        for i, j in norm:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
        return cls(n, norm)

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self):
        return sorted(self.edges)

    def adjacency(self):
        adj = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then m lines "i j", 1-indexed.

    Blank lines and '#' comments are ignored.  Raises ValueError on anything
    malformed: bad counts, out-of-range endpoints, self-loops, duplicates.
    """
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if len(tokens) < 2:
        raise ValueError("missing 'n m' header")
    try:
        nums = [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"non-integer token in graph input: {exc}") from None
    n, m = nums[0], nums[1]
    body = nums[2:]
    if n < 2:
        raise ValueError(f"need n >= 2 vertices, got {n}")
    if m < 1:
        raise ValueError(f"need m >= 1 edges, got {m}")
    if len(body) != 2 * m:
        raise ValueError(f"expected {2 * m} endpoint tokens for m={m}, got {len(body)}")
    edges = set()
    for k in range(m):
        i, j = body[2 * k], body[2 * k + 1]
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) out of range 1..{n}")
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        e = (min(i, j) - 1, max(i, j) - 1)
        if e in edges:
            raise ValueError(f"duplicate edge ({i},{j})")
        edges.add(e)
    return Graph.from_edges(n, edges)


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    for i, j in g.sorted_edges():
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def min_degree(g: Graph) -> int:
    return min(g.degree(v) for v in range(g.n))


# ---------------------------------------------------------------------------
# Connectivity helpers


def _components(n: int, adj, removed_vertices=(), removed_edges=()) -> int:
    removed_vertices = set(removed_vertices)
    removed_edges = {(min(e), max(e)) for e in removed_edges}
    seen = set(removed_vertices)
    comps = 0
    for start in range(n):
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in seen:
                    continue
                if (min(v, w), max(v, w)) in removed_edges:
                    continue
                seen.add(w)
                stack.append(w)
    return comps


# ---------------------------------------------------------------------------
# Brute-force solvers (reference oracles)


def vertex_connectivity_bruteforce(g: Graph):
    """(kappa, separator or None).  separator is None exactly for complete graphs.

    Tries removal subsets in ascending size, lexicographic within a size, so
    the witness is deterministic.  Any non-complete graph has a separator of
    size <= n - 2 (all vertices except a non-adjacent pair).
    """
    adj = g.adjacency()
    if _components(g.n, adj) > 1:
        return 0, ()
    for size in range(1, g.n - 1):
        for subset in combinations(range(g.n), size):
            if _components(g.n, adj, removed_vertices=subset) > 1:
                return size, subset
    return g.n - 1, None


def edge_connectivity_bruteforce(g: Graph):
    """(lambda, edge cut).  Subsets ascending by size, lexicographic order."""
    adj = g.adjacency()
    if _components(g.n, adj) > 1:
        return 0, ()
    edges = g.sorted_edges()
    for size in range(1, g.m + 1):
        for subset in combinations(edges, size):
            if _components(g.n, adj, removed_edges=subset) > 1:
                return size, subset
    raise AssertionError("removing all edges must disconnect (n >= 2)")


# ---------------------------------------------------------------------------
# Max-flow solvers


def _edmonds_karp(num_nodes: int, arcs, source: int, sink: int) -> tuple:
    """Integer max flow.  arcs: list of (u, v, capacity).  Returns (value, residual_adj, cap)."""
    cap = {}
    adj = [[] for _ in range(num_nodes)]
    for u, v, c in arcs:
        if (u, v) not in cap:
            adj[u].append(v)
            adj[v].append(u)
            cap[(u, v)] = 0
            cap[(v, u)] = cap.get((v, u), 0)
        cap[(u, v)] += c
    flow = 0
    while True:
        parent = {source: None}
        queue = [source]
        while queue and sink not in parent:
            u = queue.pop(0)
            for v in adj[u]:
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow, adj, cap
        # unit capacities: bottleneck is at least 1; find it anyway
        path = []
        v = sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(cap[(u, w)] for u, w in path)
        for u, w in path:
            cap[(u, w)] -= bottleneck
            cap[(w, u)] += bottleneck
        flow += bottleneck


def _flow_reachable(adj, cap, source: int) -> set:
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen and cap[(u, v)] > 0:
                seen.add(v)
                stack.append(v)
    return seen


BIG = 10**6


def _vertex_flow(g: Graph, s: int, t: int):
    """Max number of internally vertex-disjoint s-t paths, plus a separator."""
    # split v into v_in = 2v, v_out = 2v+1
    arcs = []
    for v in range(g.n):
        c = BIG if v in (s, t) else 1
        arcs.append((2 * v, 2 * v + 1, c))
    for i, j in g.edges:
        arcs.append((2 * i + 1, 2 * j, BIG))
        arcs.append((2 * j + 1, 2 * i, BIG))
    value, adj, cap = _edmonds_karp(2 * g.n, arcs, 2 * s + 1, 2 * t)
    reach = _flow_reachable(adj, cap, 2 * s + 1)
    sep = tuple(
        v for v in range(g.n) if v not in (s, t) and 2 * v in reach and 2 * v + 1 not in reach
    )
    return value, sep


def _edge_flow(g: Graph, s: int, t: int):
    arcs = []
    for i, j in g.edges:
        arcs.append((i, j, 1))
        arcs.append((j, i, 1))
    value, adj, cap = _edmonds_karp(g.n, arcs, s, t)
    reach = _flow_reachable(adj, cap, s)
    cut = tuple(e for e in g.sorted_edges() if (e[0] in reach) != (e[1] in reach))
    return value, cut


def vertex_connectivity(g: Graph):
    """(kappa, separator or None) via vertex flows over all non-adjacent pairs."""
    adj = g.adjacency()
    if _components(g.n, adj) > 1:
        return 0, ()
    if g.is_complete():
        return g.n - 1, None
    best = None
    witness: Optional[tuple] = None
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if t in adj[s]:
                continue
            value, sep = _vertex_flow(g, s, t)
            if best is None or value < best:
                best, witness = value, sep
    if best is None:
        raise AssertionError("a connected graph that is not complete has a non-adjacent pair")
    return best, witness


def edge_connectivity(g: Graph):
    """(lambda, edge cut) via edge flows from a fixed source to every other vertex."""
    adj = g.adjacency()
    if _components(g.n, adj) > 1:
        return 0, ()
    best = None
    witness = ()
    for t in range(1, g.n):
        value, cut = _edge_flow(g, 0, t)
        if best is None or value < best:
            best, witness = value, cut
    if best is None:
        raise AssertionError("a connected graph on >= 2 vertices has a sink other than 0")
    return best, witness


# ---------------------------------------------------------------------------
# Generators and builders


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices with at least one edge.

    Order: edge bitmask 1, 2, ... over the lexicographic pair list, so the
    sequence is deterministic and indexable by mask.
    """
    pairs = list(combinations(range(n), 2))
    for mask in range(1, 1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        yield Graph.from_edges(n, edges)


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    if not (1 <= mask < 1 << len(pairs)):
        raise ValueError(f"mask out of range for n={n}")
    return Graph.from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


def graph_mask(g: Graph) -> int:
    pairs = list(combinations(range(g.n), 2))
    return sum(1 << k for k, e in enumerate(pairs) if e in g.edges)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = [(i + a.n, j + a.n) for i, j in b.edges]
    return Graph.from_edges(a.n + b.n, list(a.edges) + shifted)
