"""Simple undirected graphs and exact connectivity parameters.

Vertices are 0-indexed internally; the text edge-list format is 1-indexed.
The vertex and edge connectivity numbers kappa and lambda are computed by
their definitions on int bitmasks of vertices, with a bit breadth-first
search as the connectivity test: kappa over vertex subsets by size, lambda
over the vertex bipartitions.  Both return the first witness in a stated
order.  edge_connectivity_bruteforce, over edge subsets, is kept as a test
oracle for lambda.

Disconnected graphs have kappa = lambda = 0.  Complete graphs cannot be
disconnected by vertex removal, so kappa(K_n) = n - 1 by the usual convention
(consistent with removing down to a single vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator


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
# Connectivity by definition


def _neighbour_masks(n: int, edges) -> list:
    """nbr[v]: the neighbours of vertex v as an int bitmask."""
    nbr = [0] * n
    for i, j in edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return nbr


def _connected(nbr: list, alive: int) -> bool:
    """Whether the vertices in the bitmask alive induce a connected graph:
    a breadth-first search that grows a bitmask from the lowest vertex."""
    seen = frontier = alive & -alive
    while frontier:
        v = frontier & -frontier
        frontier ^= v
        new = nbr[v.bit_length() - 1] & alive & ~seen
        seen |= new
        frontier |= new
    return seen == alive


def vertex_connectivity(g: Graph):
    """(kappa, separator or None).  separator is None exactly for complete graphs.

    The definition: vertex subsets are tried by size, then lexicographically,
    so the witness is the lexicographically first least separator.  Any
    non-complete graph has a separator of size <= n - 2 (all vertices except
    a non-adjacent pair).
    """
    nbr = _neighbour_masks(g.n, g.edges)
    full = (1 << g.n) - 1
    if not _connected(nbr, full):
        return 0, ()
    for size in range(1, g.n - 1):
        for subset in combinations(range(g.n), size):
            if not _connected(nbr, full & ~sum(1 << v for v in subset)):
                return size, subset
    return g.n - 1, None


def edge_connectivity(g: Graph):
    """(lambda, edge cut).

    The definition: the least number of edges crossing a bipartition (S, S^c)
    with vertex 0 in S, over S in increasing bitmask order; the witness is
    the cut of the first least S, in sorted edge order.
    """
    nbr = _neighbour_masks(g.n, g.edges)
    full = (1 << g.n) - 1
    if not _connected(nbr, full):
        return 0, ()
    best, best_s = g.m + 1, 0
    for s in range(1, full, 2):
        cross = sum((nbr[v] & ~s).bit_count() for v in range(g.n) if s >> v & 1)
        if cross < best:
            best, best_s = cross, s
    return best, tuple((i, j) for i, j in g.sorted_edges() if (best_s >> i ^ best_s >> j) & 1)


def edge_connectivity_bruteforce(g: Graph):
    """(lambda, edge cut) over edge subsets, ascending by size, lexicographic
    within a size: a test oracle for edge_connectivity, exponential in m."""
    edges = g.sorted_edges()
    full = (1 << g.n) - 1
    for size in range(g.m + 1):
        for subset in combinations(edges, size):
            if not _connected(_neighbour_masks(g.n, set(edges) - set(subset)), full):
                return size, subset
    raise AssertionError("removing all edges must disconnect (n >= 2)")


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
