"""Literal subgroup-lattice computations on explicit Cayley tables.

Everything here works on a multiplication table and element indices; no
structure of the groups beyond the table is used, and small_group fills the
table from P's own law (BaerGroup.law, the law of multiply).  This makes the
module a fully independent (and exponentially slower) oracle for the
structured solvers in `group`: subgroups are enumerated by closure, commutator
and centralizer subgroups by literal products, central decompositions by
scanning subgroup pairs, and quotients by literal coset partitions.  It is
meant for validation runs on groups of order at most a few hundred.

The one shared convention: a cyclic (or trivial) group counts as centrally
decomposable, mirroring the rank-1 convention of the structured path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .gf import LATTICE_GUARD_ORDER, TABLE_GUARD_ORDER, all_vectors, check_guard, log_exact
from .group import BaerGroup, GroupElement


@dataclass(frozen=True)
class SmallGroup:
    """A finite group as labels + Cayley table; identity at index 0."""

    labels: tuple  # hashable per-element labels, index-aligned with the table
    mul: np.ndarray  # (N, N) indices
    inv: np.ndarray  # (N,)

    @property
    def order(self) -> int:
        return len(self.labels)


def small_group(P: BaerGroup, *, force: bool = False) -> SmallGroup:
    """Materialize the full Cayley table of P from BaerGroup.law."""
    check_guard("order", P.order, TABLE_GUARD_ORDER, force)
    n, m, p = P.n, P.m, P.p
    W = all_vectors(n + m, p)  # (v, u) in base-p counter order; row 0 is the identity
    V, U = W[:, :n], W[:, n:]
    v3, u3 = P.law(V[:, None], U[:, None], V[None], U[None])  # [a, b] = a o b
    digits = np.concatenate([v3, u3], axis=2)
    powers = p ** np.arange(n + m - 1, -1, -1, dtype=np.int64)
    mul = (digits @ powers).astype(np.int64)
    neg = ((-W) % p) @ powers
    labels = tuple((tuple(int(x) for x in w[:n]), tuple(int(x) for x in w[n:])) for w in W)
    return SmallGroup(labels, mul, neg.astype(np.int64))


def element_index(P: BaerGroup, g: GroupElement) -> int:
    p = P.p
    idx = 0
    for d in tuple(g.v) + tuple(g.u):
        idx = idx * p + int(d) % p
    return idx


def closure(mul: np.ndarray, gens: Sequence[int]) -> Tuple[int, ...]:
    """Subgroup generated by `gens`: saturate under products (finite group,
    so inverses come along as powers)."""
    cur = np.unique(np.concatenate([[0], np.asarray(gens, dtype=np.int64)]))
    while True:
        prods = np.unique(mul[np.ix_(cur, cur)])
        if prods.size == cur.size:
            return tuple(int(x) for x in cur)
        cur = prods


def all_subgroups(sg: SmallGroup, *, force: bool = False) -> List[Tuple[int, ...]]:
    """Every subgroup, by breadth-first closure extension from the trivial one."""
    check_guard("order", sg.order, LATTICE_GUARD_ORDER, force)
    trivial = (0,)
    seen = {trivial}
    queue = [trivial]
    while queue:
        H = queue.pop()
        members = set(H)
        for g in range(sg.order):
            if g in members:
                continue
            H2 = closure(sg.mul, H + (g,))
            if H2 not in seen:
                seen.add(H2)
                queue.append(H2)
    return sorted(seen, key=lambda h: (len(h), h))


def derived_subgroup(sg: SmallGroup, H: Sequence[int]) -> Tuple[int, ...]:
    """[H, H] as the closure of all literal commutators within H."""
    arr = np.asarray(H, dtype=np.int64)
    inv_ab = sg.mul[np.ix_(sg.inv[arr], sg.inv[arr])]  # [i,j] = a_i^-1 a_j^-1
    ab = sg.mul[np.ix_(arr, arr)]  # [i,j] = a_i a_j
    comms = np.unique(sg.mul[inv_ab, ab])  # [a,b] = (a^-1 b^-1)(a b)
    return closure(sg.mul, comms)


def center_indices(sg: SmallGroup) -> Tuple[int, ...]:
    mask = (sg.mul == sg.mul.T).all(axis=1)
    return tuple(int(x) for x in np.flatnonzero(mask))


def is_abelian_set(sg: SmallGroup, H: Sequence[int]) -> bool:
    arr = np.asarray(H, dtype=np.int64)
    M = sg.mul[np.ix_(arr, arr)]
    return bool((M == M.T).all())


def is_cyclic_or_trivial(sg: SmallGroup, H: Sequence[int]) -> bool:
    return any(len(closure(sg.mul, [g])) == len(H) for g in H)


def literal_centrally_decomposable(
    sg: SmallGroup, subgroups: Optional[List[Tuple[int, ...]]] = None, *, force: bool = False
):
    """Scan subgroup pairs for a central product: J K = G, [J, K] = 1, both
    proper.  Cyclic and trivial groups count as decomposable by convention."""
    if is_cyclic_or_trivial(sg, range(sg.order)):
        return True, None
    if subgroups is None:
        subgroups = all_subgroups(sg, force=force)
    proper = [h for h in subgroups if 1 < len(h) < sg.order]
    for i, J in enumerate(proper):
        ja = np.asarray(J, dtype=np.int64)
        for K in proper[i:]:
            ka = np.asarray(K, dtype=np.int64)
            if len(J) * len(K) < sg.order:
                continue
            if len(J) * len(K) != sg.order * len(set(J) & set(K)):
                continue  # JK does not cover G
            if not (sg.mul[np.ix_(ja, ka)] == sg.mul[np.ix_(ka, ja)].T).all():
                continue  # factors do not commute elementwise
            return True, (J, K)
    return False, None


def subgroup_of(sg: SmallGroup, H: Sequence[int]) -> SmallGroup:
    """The subgroup H as a standalone group with relabeled indices."""
    arr = np.asarray(sorted(H), dtype=np.int64)
    pos = {int(g): i for i, g in enumerate(arr)}
    mul = np.array([[pos[int(sg.mul[a, b])] for b in arr] for a in arr], dtype=np.int64)
    inv = np.array([pos[int(sg.inv[a])] for a in arr], dtype=np.int64)
    labels = tuple(sg.labels[int(a)] for a in arr)
    return SmallGroup(labels, mul, inv)


def quotient_by_central(sg: SmallGroup, N: Sequence[int]) -> SmallGroup:
    """G/N for a central subgroup N, by literal coset partition.

    Coset representatives are the minimal indices; the identity coset keeps
    index 0.  Centrality makes every coset two-sided.
    """
    narr = np.asarray(N, dtype=np.int64)
    if not all((sg.mul[g, narr] == sg.mul[narr, g]).all() for g in range(sg.order)):
        raise ValueError("N is not central")
    rep_of = np.full(sg.order, -1, dtype=np.int64)
    for g in range(sg.order):
        if rep_of[g] >= 0:
            continue
        coset = sg.mul[g, narr]
        rep_of[coset] = int(coset.min())
    reps = np.unique(rep_of)
    pos = {int(r): i for i, r in enumerate(reps)}
    relabel = np.array([pos[int(rep_of[g])] for g in range(sg.order)], dtype=np.int64)
    mul = relabel[sg.mul[np.ix_(reps, reps)]]
    inv = relabel[sg.inv[reps]]
    labels = tuple(sg.labels[int(r)] for r in reps)
    return SmallGroup(labels, mul, inv)


# ---------------------------------------------------------------------------
# Literal kappa / lambda


def literal_kappa(P: BaerGroup, *, force: bool = False) -> int:
    """kappa by brute force over the whole subgroup lattice: minimum s over
    ALL regular subgroups S (not just the structured S_U family) with
    |S/[S,S]| = p^(n-s) that are literally centrally decomposable."""
    check_guard("order", P.order, LATTICE_GUARD_ORDER, force)  # before the table
    sg = small_group(P, force=force)
    subgroups = all_subgroups(sg, force=force)
    comm_set = set(derived_subgroup(sg, range(sg.order)))
    best = None
    for S in subgroups:
        DS = derived_subgroup(sg, S)
        if set(DS) != (set(S) & comm_set):
            continue  # not regular
        k = log_exact(len(S) // len(DS), P.p)
        s = P.n - k
        if s < 0 or (best is not None and s >= best):
            continue
        pos = {g: i for i, g in enumerate(sorted(S))}
        inner = [tuple(sorted(pos[g] for g in H)) for H in subgroups if set(H) <= set(S)]
        ok, _ = literal_centrally_decomposable(subgroup_of(sg, S), subgroups=inner)
        if ok:
            best = s
    return best


def literal_lambda(
    P: BaerGroup,
    within_commutator: bool = True,
    *,
    force: bool = False,
) -> int:
    """lambda by brute force: minimum log_p |N| over central subgroups N
    (restricted to N <= [P,P] by default, or fully unrestricted) such that
    P/N is literally centrally decomposable."""
    check_guard("order", P.order, LATTICE_GUARD_ORDER, force)  # before the table
    sg = small_group(P, force=force)
    subgroups = all_subgroups(sg, force=force)
    zcenter = set(center_indices(sg))
    allowed = set(derived_subgroup(sg, range(sg.order))) if within_commutator else zcenter
    best = None
    for N in sorted(subgroups, key=len):
        if not set(N) <= (zcenter & allowed):
            continue
        s = log_exact(len(N), P.p)
        if best is not None and s >= best:
            continue
        quo = quotient_by_central(sg, N)
        ok, _ = literal_centrally_decomposable(quo, force=force)
        if ok:
            best = s
    return best


# ---------------------------------------------------------------------------
# Axiom checks (used by the sanity tests)


def check_associativity_exhaustive(sg: SmallGroup) -> bool:
    # left[a,b,c] = (ab)c, right[a,b,c] = a(bc)
    left = sg.mul[sg.mul]
    right = sg.mul[np.arange(sg.order)[:, None, None], sg.mul]
    return bool((left == right).all())


def check_associativity_sampled(sg: SmallGroup, rng: np.random.Generator, count: int) -> bool:
    a, b, c = (rng.integers(0, sg.order, count) for _ in range(3))
    return bool((sg.mul[sg.mul[a, b], c] == sg.mul[a, sg.mul[b, c]]).all())


def check_exponent(sg: SmallGroup, p: int) -> bool:
    acc = np.zeros(sg.order, dtype=np.int64)
    g = np.arange(sg.order)
    for _ in range(p):
        acc = sg.mul[acc, g]
    return bool((acc == 0).all())
