"""Finite p-groups of class 2 and exponent p built from alternating bilinear maps.

For an odd prime p and a surjective alternating bilinear map
phi: F_p^n x F_p^n -> F_p^m, the group lives on the set F_p^n + F_p^m with

    (v1, u1) o (v2, u2) = (v1 + v2, u1 + u2 + h * phi(v1, v2)),   h = (p+1)/2.

Then |P| = p^(n+m), every element has order dividing p, [P,P] = {(0, u)} and
Z(P) = {(v, u) : phi(v, .) = 0}, so P has class 2.

kappa(P) is the smallest s such that some regular subgroup S with
|S / [S,S]| = p^(n-s) is centrally decomposable; lambda(P) is the smallest s
such that P/N is centrally decomposable for some central N <= [P,P] of order
p^s.  Both are computed here through a structured search over subspace pairs:
a central decomposition of P/N_X restricts, on v-parts, to a pair of proper
nonzero subspaces U_J, U_K with U_J + U_K = F^n and phi(U_J, U_K) <= X, and
conversely any such pair lifts to a decomposition.  (If a factor J had zero
v-part, the other factor would cover all v-parts, hence contain all
commutators, hence be the whole group; so both U's are nonzero proper.)

Degenerate convention: a piece whose v-part is a single line (a cyclic group)
counts as centrally decomposable.  This is the group image of the convention
that a matrix space on a 1-dimensional ambient decomposes; without it the
groups of complete graphs would disagree with kappa(K_n) = n - 1.  Abelian
pieces of v-rank >= 2 decompose genuinely, so the convention only speaks for
rank 1.

The pairs and their cross rows phi(U_J, U_K) do not depend on X, so
_pair_blocks lists them once per ambient, in canonical order, and each
search tests them against its own X.  lambda_group keeps them as one pair
table: level s = 0 runs while the table is built, then one batched rank
gives dim phi(U_J, U_K) of every pair, and each level s >= 1 tests only the
pairs of dim <= s against a chunk of X at a time, through one product with
the annihilators of the X.  Value and witness are those of the per-X scan
(argument in lambda_group).

A fast path recovers the bilinear map from commutators and delegates to the
map-level solvers; the structured path and the fast path are independent
above the shared decomposability primitive and must agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Tuple

import numpy as np

from . import gf
from .altspace import matrices_from_json
from .bilinear import AltBilinearMap, is_surjective, kappa_map, lambda_map
from .gf import Subspace, check_guard, field, rank_batched, reduce_mod_rowspace, subspace_matrices

_PAIR_CHUNK = 2**14  # entries in one direct-sum stack of _pair_blocks, and in one product of lambda_group


@dataclass(frozen=True)
class GroupElement:
    v: tuple
    u: tuple

    def __repr__(self):
        return f"({','.join(map(str, self.v))};{','.join(map(str, self.u))})"


@dataclass(frozen=True)
class BaerGroup:
    p: int
    phi: AltBilinearMap

    def __post_init__(self):
        fp = field(self.p)  # rejects p = 2 and non-primes
        if self.phi.q != self.p:
            raise ValueError("map field and group prime differ")
        if self.phi.m < 1:
            raise ValueError("need a surjective map onto a nonzero codomain")
        if not is_surjective(self.phi):
            raise ValueError("the bilinear map must be surjective (independent matrix tuple)")
        object.__setattr__(self, "_half", fp.half)

    @property
    def n(self) -> int:
        return self.phi.n

    @property
    def m(self) -> int:
        return self.phi.m

    @property
    def order(self) -> int:
        return self.p ** (self.n + self.m)

    @property
    def identity(self) -> GroupElement:
        return GroupElement((0,) * self.n, (0,) * self.m)

    def element(self, v, u) -> GroupElement:
        v, u = tuple(int(x) % self.p for x in v), tuple(int(x) % self.p for x in u)
        if len(v) != self.n or len(u) != self.m:
            raise ValueError(f"element parts must have dims ({self.n}, {self.m})")
        return GroupElement(v, u)

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        p = self.p
        cross = self.phi(g.v, h.v)
        v = tuple((a + b) % p for a, b in zip(g.v, h.v))
        u = tuple((a + b + self._half * int(c)) % p for a, b, c in zip(g.u, h.u, cross))
        return GroupElement(v, u)

    def inverse(self, g: GroupElement) -> GroupElement:
        p = self.p
        return GroupElement(tuple(-a % p for a in g.v), tuple(-a % p for a in g.u))

    def power(self, g: GroupElement, k: int) -> GroupElement:
        if k < 0:
            return self.power(self.inverse(g), -k)
        acc, base = self.identity, g
        while k:
            if k & 1:
                acc = self.multiply(acc, base)
            base = self.multiply(base, base)
            k >>= 1
        return acc

    def commutator(self, g: GroupElement, h: GroupElement) -> GroupElement:
        gh = self.multiply(g, h)
        hg = self.multiply(h, g)
        return self.multiply(self.inverse(hg), gh)

    def all_elements(self) -> Iterator[GroupElement]:
        for v in product(range(self.p), repeat=self.n):
            for u in product(range(self.p), repeat=self.m):
                yield GroupElement(v, u)

    def __repr__(self):
        return f"BaerGroup(p={self.p}, n={self.n}, m={self.m}, order={self.order})"


def baer_group(phi: AltBilinearMap, p: int) -> BaerGroup:
    return BaerGroup(p, phi)


def group_from_graph(g, p: int) -> BaerGroup:
    from .altspace import space_from_graph
    from .bilinear import map_from_space

    return BaerGroup(p, map_from_space(space_from_graph(g, p)))


# ---------------------------------------------------------------------------
# Structured subgroups


@dataclass(frozen=True)
class StandardSubgroup:
    """The set {(v, u) : v in U, u in X}; a subgroup iff phi(U, U) <= X."""

    U: Subspace
    X: Subspace

    def order(self, p: int) -> int:
        return p ** (self.U.dim + self.X.dim)

    def contains(self, g: GroupElement) -> bool:
        return self.U.contains(np.array(g.v)) and self.X.contains(np.array(g.u))


def phi_image_span(P: BaerGroup, U: Subspace) -> Subspace:
    """span phi(U, U), computed from the pairwise values of a basis of U."""
    B = U.mat()
    if U.dim == 0:
        return Subspace.zero(P.m, P.p)
    vals = np.einsum("ai,kij,bj->abk", B, P.phi.tensor, B) % P.p
    return Subspace.from_vectors(vals.reshape(-1, P.m), P.m, P.p)


def standard_subgroup(P: BaerGroup, U: Subspace, X: Subspace) -> StandardSubgroup:
    if U.n != P.n or X.n != P.m or U.q != P.p or X.q != P.p:
        raise ValueError("subspace dims incompatible with the group")
    if not X.contains_space(phi_image_span(P, U)):
        raise ValueError("not closed: phi(U, U) is not inside X")
    return StandardSubgroup(U, X)


def center(P: BaerGroup) -> StandardSubgroup:
    """Z(P) = {(v, u) : v in the radical of phi, u arbitrary}."""
    stacked = P.phi.tensor.reshape(-1, P.n)
    if stacked.shape[0] == 0:
        rad = Subspace.full(P.n, P.p)
    else:
        rad = Subspace.from_vectors(gf.nullspace(stacked, P.p), P.n, P.p)
    return StandardSubgroup(rad, Subspace.full(P.m, P.p))


def commutator_subgroup(P: BaerGroup) -> StandardSubgroup:
    """[P, P] = {(0, u)}: commutators are (0, phi(v, w)) and phi is onto."""
    return StandardSubgroup(Subspace.zero(P.n, P.p), Subspace.full(P.m, P.p))


def regular_subgroup(P: BaerGroup, U: Subspace) -> StandardSubgroup:
    """S_U = U x span phi(U, U), the smallest subgroup covering U mod [P,P]."""
    return StandardSubgroup(U, phi_image_span(P, U))


def central_subgroup(P: BaerGroup, X: Subspace) -> StandardSubgroup:
    """N_X = {(0, u) : u in X}, central and inside [P, P]."""
    return standard_subgroup(P, Subspace.zero(P.n, P.p), X)


def is_regular(P: BaerGroup, S: StandardSubgroup) -> bool:
    """S is regular iff [S, S] = S intersect [P, P], i.e. X = span phi(U, U)."""
    return S.X == phi_image_span(P, S.U)


# ---------------------------------------------------------------------------
# Degrees


def deg_element(P: BaerGroup, g: GroupElement, *, force: bool = False) -> int:
    """n + m - log_p |C_P(g)|, the centralizer measured by exhaustive count.

    (w, x) commutes with g iff phi(v_g, w) = 0: the u-parts cancel in the
    commutator, so the centralizer is (kernel count) * p^m and the scan only
    needs to walk F_p^n.  The guard is therefore on n; the u-independence is
    cross-checked against full-element scans in the tests.
    """
    check_guard("n", P.n, gf.GUARD_N, force)
    vecs = gf.all_vectors(P.n, P.p)
    Mv = np.einsum("kij,i->kj", P.phi.tensor, np.array(g.v, dtype=np.int64)) % P.p
    hits = int(((vecs @ Mv.T) % P.p == 0).all(axis=1).sum())
    k = 0  # hits is an exact power of p (it counts a subspace)
    while hits > 1:
        if hits % P.p:
            raise AssertionError(f"centralizer kernel count {hits} is not a power of {P.p}")
        hits //= P.p
        k += 1
    return P.n + P.m - (P.m + k)


def deg_element_by_rank(P: BaerGroup, g: GroupElement) -> int:
    """Same degree through rank(phi(v_g, .)); cross-check for deg_element."""
    Mv = np.einsum("kij,i->kj", P.phi.tensor, np.array(g.v, dtype=np.int64)) % P.p
    return gf.rank_gf(Mv, P.p)


def delta_group(P: BaerGroup, *, force: bool = False) -> Tuple[int, GroupElement]:
    """Minimum degree over g outside [P, P] (i.e. with nonzero v-part).

    deg(g) depends only on the line of v_g, so one representative per
    projective line is scanned.
    """
    check_guard("n", P.n, gf.GUARD_N, force)
    best, best_g = None, None
    for v in gf.projective_lines(P.n, P.p):
        g = P.element(tuple(int(x) for x in v), (0,) * P.m)
        d = deg_element(P, g, force=force)
        if best is None or d < best:
            best, best_g = d, g
    return best, best_g


def commutator_map(P: BaerGroup) -> AltBilinearMap:
    """The bilinear map on P/[P,P] x P/[P,P] -> [P,P] induced by commutators.

    Reconstructed honestly from group arithmetic on the standard coset
    representatives (e_i, 0); for a group built from phi this returns phi
    itself, coordinate for coordinate.
    """
    n, m, p = P.n, P.m, P.p
    mats = np.zeros((m, n, n), dtype=np.int64)
    gens = [P.element(tuple(int(i == t) for t in range(n)), (0,) * m) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = P.commutator(gens[i], gens[j])
            if any(c.v):
                raise AssertionError("commutator landed outside [P, P]")
            for k in range(m):
                mats[k, i, j] = c.u[k]
                mats[k, j, i] = (-c.u[k]) % p
    return AltBilinearMap.from_matrices(mats, n, p)


# ---------------------------------------------------------------------------
# Central decompositions


def _pair_blocks(P: BaerGroup, ambient: Subspace):
    """The direct pairs of proper nonzero U_J, U_K <= ambient, with their cross rows.

    Yields blocks (a, js, ks, cross): pair t of a block is U_J = row js[t]
    of the dim-a stack and U_K = row ks[t] of the dim-(d - a) stack (those
    of _pair_subspaces), with U_J + U_K = ambient; cross[t], of shape
    (a (d - a), m), holds the values phi(x, y) mod p over the basis rows x
    of U_J and y of U_K, whose span is phi(U_J, U_K).  The pairs come in
    canonical order: a ascending, then j in subspace_matrices order, then k
    ascending (k >= j when a = d - a).  A block covers consecutive j, at
    most about _PAIR_CHUNK entries of direct-sum tests.  Nothing here
    depends on a central X: each search tests the cross rows against its own.

    Only direct pairs are listed: if a non-direct pair has phi(U_J, U_K) <= X,
    replacing U_K by a complement of U_J n U_K inside U_K keeps that and
    makes the pair direct, so directness loses nothing.
    """
    d, n, p = ambient.dim, P.n, P.p
    B = ambient.mat()
    for a in range(1, d // 2 + 1):
        b = d - a
        j_stack = (subspace_matrices(d, a, p) @ B) % p  # (NJ, a, n)
        k_stack = (subspace_matrices(d, b, p) @ B) % p  # (NK, b, n)
        # JA[j, x, k] = row x of U_J times the k-th matrix of phi, (NJ, a, m, n)
        JA = np.einsum("jxi,kil->jxkl", j_stack, P.phi.tensor)
        step = max(1, _PAIR_CHUNK // (len(k_stack) * d * n))
        for lo in range(0, len(j_stack), step):
            hi = min(lo + step, len(j_stack))
            k0 = lo if a == b else 0
            nk = len(k_stack) - k0
            stacked = np.concatenate(
                [np.broadcast_to(j_stack[lo:hi, None], (hi - lo, nk, a, n)),
                 np.broadcast_to(k_stack[None, k0:], (hi - lo, nk, b, n))],
                axis=2,
            )
            # direct-sum mask: rank of the stacked bases reaches dim ambient
            direct = (rank_batched(stacked.reshape(-1, d, n), p, cap=d) == d).reshape(hi - lo, nk)
            if a == b:
                direct &= np.arange(k0, len(k_stack)) >= np.arange(lo, hi)[:, None]
            js, ks = np.nonzero(direct)  # row-major: j ascending, then k
            if not js.size:
                continue
            js, ks = js + lo, ks + k0
            cross = JA[js].reshape(len(js), a * P.m, n) @ k_stack[ks].transpose(0, 2, 1)
            cross = cross.reshape(len(js), a, P.m, b).transpose(0, 1, 3, 2) % p
            yield a, js, ks, cross.reshape(len(js), a * b, P.m)


def _pair_subspaces(P: BaerGroup, ambient: Subspace, a: int, j: int, k: int):
    """(U_J, U_K) for row j of the dim-a stack and row k of the dim-(d - a) stack."""
    d, p, B = ambient.dim, P.p, ambient.mat()
    J = subspace_matrices(d, a, p)[j] @ B
    K = subspace_matrices(d, d - a, p)[k] @ B
    return Subspace.from_vectors(J, P.n, p), Subspace.from_vectors(K, P.n, p)


def _pair_decomposable(P: BaerGroup, ambient: Subspace, X: Subspace):
    """Search proper nonzero U_J, U_K <= ambient with U_J + U_K = ambient and
    phi(U_J, U_K) <= X.  Returns (found, (U_J, U_K) or None).

    The pairs are those of _pair_blocks, in its canonical order, so the
    returned pair is the first one and always a direct sum.

    A 1-dimensional ambient has no proper pair and counts as decomposable by
    convention (see the module docstring); the witness is then None.
    """
    d = ambient.dim
    if d == 0:
        raise ValueError("decomposability of the trivial piece is undefined")
    if d == 1:
        return True, None
    x_basis = X.mat()
    for a, js, ks, cross in _pair_blocks(P, ambient):
        resid = reduce_mod_rowspace(cross.reshape(-1, P.m), x_basis, P.p)
        clean = ~resid.reshape(len(ks), -1).any(axis=1)
        if clean.any():
            t = int(clean.argmax())
            return True, _pair_subspaces(P, ambient, a, int(js[t]), int(ks[t]))
    return False, None


def is_centrally_decomposable(
    P: BaerGroup,
    modulo: Optional[Subspace] = None,
    *,
    force: bool = False,
):
    """Is P (or P / N_modulo for modulo <= F^m) a central product of two
    proper subgroups?  Returns (bool, (U_J, U_K) or None)."""
    X = modulo if modulo is not None else Subspace.zero(P.m, P.p)
    if X.n != P.m or X.q != P.p:
        raise ValueError("modulo must be a subspace of the codomain F_p^m")
    check_guard("n+m", P.n + P.m, gf.GROUP_GUARD_EXP, force)
    return _pair_decomposable(P, Subspace.full(P.n, P.p), X)


def decomposition_factors(P: BaerGroup, pair, X: Optional[Subspace] = None):
    """Lift a subspace-pair witness to explicit subgroup factors (J, K).

    J = U_J x (span phi(U_J, U_J) + X) and likewise K; then JK = P,
    [J, K] <= N_X, and both factors are proper, so J/N_X and K/N_X centrally
    decompose P/N_X.
    """
    if X is None:
        X = Subspace.zero(P.m, P.p)
    U_J, U_K = pair
    J = standard_subgroup(P, U_J, phi_image_span(P, U_J).sum_with(X))
    K = standard_subgroup(P, U_K, phi_image_span(P, U_K).sum_with(X))
    return J, K


@dataclass(frozen=True)
class KappaGroupResult:
    value: int
    subgroup: StandardSubgroup  # the regular S_U that decomposes
    pair: Optional[Tuple[Subspace, Subspace]]


@dataclass(frozen=True)
class LambdaGroupResult:
    value: int
    quotient_by: StandardSubgroup  # the central N_X <= [P,P]
    pair: Optional[Tuple[Subspace, Subspace]]


def kappa_group(
    P: BaerGroup,
    method: str = "structured",
    *,
    force: bool = False,
) -> KappaGroupResult:
    """Smallest s with a centrally decomposable regular S, |S/[S,S]| = p^(n-s).

    structured: scan S_U over subspaces U of dim n-s, s ascending; S_U is
    regular by construction and |S_U/[S_U,S_U]| = p^(dim U).  Central
    decomposability of S_U reduces to a subspace pair inside U with vanishing
    phi-cross.  Always terminates: a 1-dimensional U gives a cyclic piece.

    fast: recover the commutator map and run the map-level restriction
    search; no group-size guard.
    """
    if method == "fast":
        value, U = kappa_map(commutator_map(P), force=force)
        return KappaGroupResult(value, regular_subgroup(P, U), None)
    if method != "structured":
        raise ValueError("method must be 'structured' or 'fast'")
    check_guard("n+m", P.n + P.m, gf.GROUP_GUARD_EXP, force)
    zero = Subspace.zero(P.m, P.p)
    for s in range(P.n):
        for u_rows in subspace_matrices(P.n, P.n - s, P.p):
            U = Subspace.from_vectors(np.array(u_rows), P.n, P.p)
            found, pair = _pair_decomposable(P, U, zero)
            if found:
                return KappaGroupResult(s, regular_subgroup(P, U), pair)
    raise AssertionError("a 1-dimensional U always decomposes by convention")


def lambda_group(
    P: BaerGroup,
    method: str = "structured",
    *,
    force: bool = False,
) -> LambdaGroupResult:
    """Smallest s with P/N centrally decomposable, N <= [P,P] of order p^s.

    structured: P/N_X decomposes iff a proper nonzero pair covers F^n with
    phi(U_J, U_K) <= X (module docstring).  The answer is the first hit in
    the order s ascending, X in subspace_matrices order, then the pairs in
    _pair_blocks order; the search reads that order off one pair table:
    - Level s = 0 (X = 0) runs while the table is built: the first block
      with a pair of zero cross rows returns that pair.
    - Otherwise the table holds the cross rows of every pair, zero-padded to
      one width, and one rank_batched call gives d_t = dim phi(U_J, U_K) of
      every pair t.
    - A pair with d_t > s lies in no X of dimension s, so level s keeps only
      the pairs with d_t <= s; the first clean pair of every X stays the
      same.  The X are walked in order, in chunks: a cross row lies in X iff
      the closed-form annihilator of X kills it, so one product mod p per
      chunk marks every clean (pair, X) cell.  The first X with a clean cell
      and its first clean pair in table order are the canonical first hit.
    - Levels below min d_t keep no pair and are skipped, and level
      s = min d_t always ends the search: the span phi(U_J, U_K) of a pair
      with d_t = s is itself an X of that level.  At s = m the only X is
      F^m, where the quotient is elementary abelian of rank n >= 2, and the
      first pair wins (rank-1 groups fall under the cyclic convention).
    So value, N_X and pair are those of the per-X scan.

    fast: commutator map + map-level quotient search.
    """
    if method == "fast":
        value, X = lambda_map(commutator_map(P), force=force)
        return LambdaGroupResult(value, central_subgroup(P, X), None)
    if method != "structured":
        raise ValueError("method must be 'structured' or 'fast'")
    check_guard("n+m", P.n + P.m, gf.GROUP_GUARD_EXP, force)
    n, m, p = P.n, P.m, P.p
    full = Subspace.full(n, p)
    dtype = gf._work_dtype(p, m)  # holds every cross entry and every product sum below
    width = (n // 2) * (n - n // 2)  # the most cross rows of a pair, at a = n // 2
    # pair t of the table is row j_idx[t] of the dim-a_idx[t] stack and row k_idx[t] of its partner
    a_idx, j_idx, k_idx, table = [], [], [], []
    for a, js, ks, cross in _pair_blocks(P, full):
        clean = ~cross.reshape(len(ks), -1).any(axis=1)
        if clean.any():
            t = int(clean.argmax())
            return LambdaGroupResult(0, central_subgroup(P, Subspace.zero(m, p)),
                                     _pair_subspaces(P, full, a, int(js[t]), int(ks[t])))
        a_idx.append(np.full(len(ks), a, dtype=np.int8))
        j_idx.append(js.astype(np.int32))
        k_idx.append(ks.astype(np.int32))
        padded = np.zeros((len(ks), width, m), dtype=dtype)
        padded[:, : cross.shape[1]] = cross
        table.append(padded)
    a_idx, j_idx, k_idx, table = (np.concatenate(x) for x in (a_idx, j_idx, k_idx, table))
    dims = rank_batched(table, p)
    for s in range(1, m + 1):
        kept = np.flatnonzero(dims <= s)
        if not kept.size:
            continue
        rows = table[kept].reshape(-1, m)
        xs = subspace_matrices(m, s, p)
        step = max(1, _PAIR_CHUNK // max(1, len(rows) * (m - s)))
        for lo in range(0, len(xs), step):
            ann = gf.annihilator_matrices(xs[lo : lo + step], p).astype(dtype)  # (c, m - s, m)
            dirty = (rows @ ann.reshape(-1, m).T) % p != 0
            clean = ~dirty.reshape(len(kept), width, len(ann), m - s).any(axis=(1, 3))  # (pair, X)
            hit = np.flatnonzero(clean.any(axis=0))
            if hit.size:
                x = int(hit[0])
                t = int(kept[clean[:, x].argmax()])
                X = Subspace.from_vectors(np.array(xs[lo + x]).reshape(s, m), m, p)
                pair = _pair_subspaces(P, full, int(a_idx[t]), int(j_idx[t]), int(k_idx[t]))
                return LambdaGroupResult(s, central_subgroup(P, X), pair)
    raise AssertionError("the span of a pair's cross rows is an X that ends the search")


# ---------------------------------------------------------------------------
# Serialization and element literals


def group_to_json(P: BaerGroup) -> str:
    payload = {
        "p": P.p,
        "n": P.n,
        "m": P.m,
        "phi": [[list(row) for row in A] for A in P.phi.mats],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def group_from_json(text: str) -> BaerGroup:
    p, n, arr = matrices_from_json(text, "group", "p", "phi", count="m")
    return BaerGroup(p, AltBilinearMap.from_matrices(arr, n, p))


def parse_element(text: str, P: BaerGroup) -> GroupElement:
    """Parse 'v1,v2,...;u1,u2,...' into a group element."""
    if ";" not in text:
        raise ValueError("element literal must be 'v1,..,vn;u1,..,um'")
    v_part, u_part = text.split(";", 1)

    def ints(part, want, label):
        items = [s.strip() for s in part.split(",")] if part.strip() else []
        if len(items) != want:
            raise ValueError(f"expected {want} {label}-coordinates, got {len(items)}")
        try:
            return tuple(int(s) for s in items)
        except ValueError:
            raise ValueError(f"{label}-coordinates must be integers") from None

    return P.element(ints(v_part, P.n, "v"), ints(u_part, P.m, "u"))


def format_element(g: GroupElement) -> str:
    return f"{','.join(map(str, g.v))};{','.join(map(str, g.u))}"
