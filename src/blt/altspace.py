"""Alternating matrix spaces over F_q and their connectivity parameters.

An alternating matrix space is a subspace of the alternating n x n matrices
over F_q (q odd, so alternating == skew-symmetric).  A graph G on n vertices
maps to the space spanned by the elementary alternating matrices of its
edges; all three graph connectivity parameters have space-level analogues:

* kappa: largest c such that every restriction to a subspace of dimension
  n - c + 1 stays orthogonally indecomposable (computed as the smallest c
  with a decomposable restriction of dimension n - c),
* lambda: smallest c such that some codimension-c subspace of the space
  itself is decomposable, equivalently the minimum over direct sum splits
  U + V = F^n of the dimension of the cut space {T_U A T_V^t : A},
* delta: minimum over nonzero v of deg(v) = dim of the image space A v.

Decomposability reduces to a single-subspace test: the space decomposes iff
some U with 0 < dim U < n satisfies U + U^perp = F^n, where U^perp collects
the vectors orthogonal to U under every matrix of the space.  Restricting to
dim U <= n/2 loses nothing because both sides of a split are candidates.

kappa is computed by a further collapse: a decomposable restriction W built
from U has dim(U + U^perp) = dim U + dim ker M_U - dim(U cap ker M_U) where
M_U stacks the rows u^t A over basis vectors u and basis matrices A, and
every decomposable W arises that way, so

    kappa = min(n - 1,  min over U of rank(M_U) - rank(M_U B_U^t))

subject to ker M_U not contained in U.  The n - 1 term is the degenerate
convention: one-dimensional restrictions are zero spaces and zero spaces
decompose.  A literal restriction-enumeration solver is kept alongside as a
cross-check oracle.

The literal oracles here (kappa_space_bruteforce, lambda_space_oracle) and
in bilinear (kappa_map, lambda_map) share one candidate loop,
first_decomposable: one batched rank per chunk gives each candidate's
self-adjoint algebra, dimension 1 proves it indecomposable, and every
other candidate gets the oracle's own literal test, in canonical order.

Level scans and line degrees are computed once per space object and shared
by kappa, lambda, delta and decomposability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Optional, Tuple

import numpy as np

from . import gf
from .gf import GuardExceeded  # noqa: F401  (re-exported; defined with the budgets in gf)
from .gf import Subspace, check_guard, field, rank_batched, subspace_matrices
from .graphs import Graph

_CHUNK = 4096
_ADJOINT_CHUNK = 2**15  # int64 entries in one chunk of first_decomposable's constraint rows
_FULLCONN_CELLS = 2**20  # pair cells in one row block of is_fully_connected


def is_alternating(mat: np.ndarray, q: int) -> bool:
    return bool(((mat + mat.T) % q == 0).all() and (np.diag(mat) % q == 0).all())


@dataclass(frozen=True)
class AltMatrixSpace:
    """Subspace of alternating n x n matrices, canonical RREF basis of vecs."""

    n: int
    q: int
    basis: tuple  # tuple of n x n tuples

    def __post_init__(self):
        field(self.q)
        if self.n < 1:
            raise ValueError("ambient dimension must be >= 1")

    @classmethod
    def from_matrices(cls, mats, n: int, q: int) -> "AltMatrixSpace":
        arr = gf.as_residues(mats, q)
        if arr.size == 0:
            arr = arr.reshape(0, n, n)
        if arr.ndim != 3 or arr.shape[1:] != (n, n):
            raise ValueError(f"expected a stack of {n} x {n} matrices")
        for A in arr:
            if not is_alternating(A, q):
                raise ValueError("matrix is not alternating (need A^T = -A mod q)")
        vecs = arr.reshape(len(arr), n * n)
        R, r, _ = gf.rref(vecs, q)
        mats_canon = R[:r].reshape(r, n, n)
        return cls(n, q, tuple(tuple(tuple(int(x) for x in row) for row in A) for A in mats_canon))

    @classmethod
    def zero(cls, n: int, q: int) -> "AltMatrixSpace":
        return cls(n, q, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def tensor(self) -> np.ndarray:
        if not self.basis:
            return np.zeros((0, self.n, self.n), dtype=np.int64)
        t = np.array(self.basis, dtype=np.int64)
        t.setflags(write=False)
        return t

    @cached_property
    def _scans(self) -> dict:
        """b -> read-only (r1, r2) of the level-b scan; filled by _dim_scan."""
        return {}

    def contains(self, mat) -> bool:
        A = gf.as_residues(mat, self.q)
        stacked = np.vstack([self.tensor.reshape(self.dim, -1), A.reshape(1, -1)])
        return gf.rank_gf(stacked, self.q) == self.dim

    def image_of(self, v) -> Subspace:
        """The subspace A v over all A in the space (the 'neighbourhood' of v)."""
        v = gf.as_residues(v, self.q)
        cols = (self.tensor @ v) % self.q
        return Subspace.from_vectors(cols.reshape(self.dim, self.n), self.n, self.q)

    def __repr__(self):
        return f"AltMatrixSpace(n={self.n}, q={self.q}, dim={self.dim})"


@dataclass(frozen=True)
class GeneralMatrixSpace:
    """Subspace of s x t matrices over F_q, canonical RREF basis of vecs."""

    s: int
    t: int
    q: int
    basis: tuple

    @classmethod
    def from_matrices(cls, mats, s: int, t: int, q: int) -> "GeneralMatrixSpace":
        arr = gf.as_residues(mats, q)
        if arr.size == 0:
            arr = arr.reshape(0, s, t)
        if arr.ndim != 3 or arr.shape[1:] != (s, t):
            raise ValueError(f"expected a stack of {s} x {t} matrices")
        vecs = arr.reshape(len(arr), s * t)
        R, r, _ = gf.rref(vecs, q)
        mats_canon = R[:r].reshape(r, s, t)
        return cls(s, t, q, tuple(tuple(tuple(int(x) for x in row) for row in A) for A in mats_canon))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def tensor(self) -> np.ndarray:
        if not self.basis:
            return np.zeros((0, self.s, self.t), dtype=np.int64)
        t = np.array(self.basis, dtype=np.int64)
        t.setflags(write=False)
        return t

    def __repr__(self):
        return f"GeneralMatrixSpace(s={self.s}, t={self.t}, q={self.q}, dim={self.dim})"


@dataclass(frozen=True)
class OrthWitness:
    """A direct sum split F^n = U + V with u^t A v = 0 for the whole space."""

    U: Subspace
    V: Subspace


@dataclass(frozen=True)
class LambdaResult:
    value: int
    U: Optional[Subspace]
    V: Optional[Subspace]
    vanishing: AltMatrixSpace  # the codim-lambda subspace that decomposes via (U, V)


# ---------------------------------------------------------------------------
# Construction


def space_from_graph(g: Graph, q: int) -> AltMatrixSpace:
    """Span of the elementary alternating matrices of the edges of g.

    The canonical basis is exactly the elementary matrices in edge-lex order,
    so dim = number of edges.
    """
    field(q)
    mats = []
    for i, j in g.sorted_edges():
        A = np.zeros((g.n, g.n), dtype=np.int64)
        A[i, j] = 1
        A[j, i] = q - 1
        mats.append(A)
    return AltMatrixSpace.from_matrices(np.array(mats), g.n, q)


def elementary_alt(n: int, i: int, j: int, q: int) -> np.ndarray:
    A = np.zeros((n, n), dtype=np.int64)
    A[i, j] = 1
    A[j, i] = q - 1
    return A


def restrict(space: AltMatrixSpace, W: Subspace) -> AltMatrixSpace:
    """Restriction to W: matrices B A B^t for the RREF basis B of W."""
    if W.q != space.q or W.n != space.n:
        raise ValueError("subspace is incompatible with the matrix space")
    if W.dim == 0:
        raise ValueError("cannot restrict to the zero subspace")
    B = W.mat()
    mats = (B @ space.tensor @ B.T) % space.q
    return AltMatrixSpace.from_matrices(mats, W.dim, space.q)


# ---------------------------------------------------------------------------
# Decomposability


def _dim_scan(space: AltMatrixSpace, b: int):
    """For every b-dim U (canonical order): rank(M_U) and rank(M_U B_U^t).

    M_U stacks the rows u_i^t A_k; its kernel is U^perp.  Returns (r1, r2),
    read-only and computed once per space object.
    """
    if b in space._scans:
        return space._scans[b]
    n, q, m = space.n, space.q, space.dim
    AT = space.tensor
    Us = subspace_matrices(n, b, q)
    N = len(Us)
    r1 = np.zeros(N, dtype=np.int64)
    r2 = np.zeros(N, dtype=np.int64)
    step = max(1, _CHUNK // max(1, b * max(m, 1)))
    for lo in range(0, N, step):
        chunk = Us[lo : lo + step]
        M = np.einsum("ubi,kij->ubkj", chunk, AT).reshape(len(chunk), b * m, n) % q
        r1[lo : lo + step] = rank_batched(M, q)
        MBt = np.einsum("urj,ucj->urc", M, chunk)
        r2[lo : lo + step] = rank_batched(MBt, q)
    r1.setflags(write=False)
    r2.setflags(write=False)
    space._scans[b] = r1, r2
    return r1, r2


def _line_degrees(space: AltMatrixSpace) -> np.ndarray:
    """deg(u) for every line u, in projective_lines order.

    For alternating A the row u^t A is -(A u)^t, so deg(u) = rank(M_u): the
    degrees are the r1 of the level-1 scan.
    """
    return _dim_scan(space, 1)[0]


def _orth_witness_from_u(space: AltMatrixSpace, u_rows: np.ndarray) -> OrthWitness:
    n, q, m = space.n, space.q, space.dim
    U = Subspace.from_vectors(u_rows, n, q)
    if m == 0:
        V = U.complement_in()
        return OrthWitness(U, V)
    M = np.einsum("bi,kij->bkj", U.mat(), space.tensor).reshape(U.dim * m, n) % q
    perp = Subspace.from_vectors(gf.nullspace(M, q), n, q)
    core = U.intersect(perp)
    V = core.complement_in(perp)
    return OrthWitness(U, V)


def is_orth_decomposable(space: AltMatrixSpace):
    """(flag, witness).  Zero spaces decompose by convention; witness is a
    genuine split when one exists (always for ambient dim >= 2)."""
    n, q = space.n, space.q
    if n == 1:
        return True, None  # the only space is zero; no split of a 1-dim ambient
    for b in range(1, n // 2 + 1):
        r1, r2 = _dim_scan(space, b)
        hits = np.nonzero(r1 == r2)[0]
        if hits.size:
            u_rows = subspace_matrices(n, b, q)[hits[0]]
            return True, _orth_witness_from_u(space, np.array(u_rows))
    return False, None


def orth_decomposable_pairscan(space: AltMatrixSpace):
    """Literal definition: scan splits (U, V) directly.  Validation oracle."""
    n, q = space.n, space.q
    if n == 1:
        return True, None
    AT = space.tensor
    for b in range(1, n):
        for u_rows in subspace_matrices(n, b, q):
            u_rows = np.array(u_rows)
            for v_rows in gf.complement_matrices(u_rows, q):
                cuts = np.einsum("bi,kij,cj->kbc", u_rows, AT, v_rows) % q
                if not cuts.any():
                    return True, OrthWitness(
                        Subspace.from_vectors(u_rows, n, q),
                        Subspace.from_vectors(v_rows, n, q),
                    )
    return False, None


def validate_orth_witness(space: AltMatrixSpace, w: OrthWitness) -> bool:
    U, V = w.U, w.V
    if U.dim == 0 or V.dim == 0 or U.dim + V.dim != space.n:
        return False
    if U.intersect(V).dim != 0:
        return False
    cuts = np.einsum("bi,kij,cj->kbc", U.mat(), space.tensor, V.mat()) % space.q
    return not cuts.any()


@lru_cache(maxsize=None)
def _adjoint_operator(w: int) -> np.ndarray:
    """(w^2, T w^2) operator, T = w(w+1)/2: vec(A) @ op holds the rows of X^t A - A X.

    Row (i, j), i <= j, of X^t A - A X gives the unknown X[k, l] (column
    k w + l) the coefficient A[k, j] [l == i] - A[i, k] [l == j].  For
    alternating A the matrix X^t A - A X is symmetric, so the rows i > j
    repeat these and are left out.
    """
    iu, ju = np.triu_indices(w)
    t = np.arange(len(iu))
    op = np.zeros((w, w, len(iu), w, w), dtype=np.int64)  # A[a, b], row t, X[k, l]
    for k in range(w):
        op[k, ju, t, k, iu] += 1
        op[iu, k, t, k, ju] -= 1
    op = op.reshape(w * w, -1)
    op.setflags(write=False)
    return op


def first_decomposable(
    count: int,
    d: int,
    w: int,
    q: int,
    build: Callable[[int, int], np.ndarray],
    exact: Callable[[int], bool],
) -> Optional[int]:
    """First i in range(count) with exact(i), or None; the literal oracles' loop.

    Candidate i is the span of d alternating w x w generators, and
    build(lo, hi) returns those of candidates lo..hi-1 as a (hi - lo, d, w, w)
    stack.  Candidates are walked in order, one chunk at a time.  For each
    chunk one rank_batched call gives the dimension of the self-adjoint
    algebra S = {X : X^t A = A X for every generator A} of every candidate
    (J. B. Wilson, "Decomposing p-groups via Jordan algebras", J. Algebra
    322, 2009).  A candidate with w >= 2 and dim S = 1 is skipped; every
    other one goes to exact(i), in order, and the first hit is returned
    without building a later chunk.

    Why skipping is sound:
    - S always holds the scalars, so dim S >= 1.
    - A split U + V gives an idempotent in S, the projection E onto U along
      V: in a basis adapted to the split A = diag(A_U, A_V) and
      E = diag(I, 0), so E^t A = A E, and congruence keeps that relation.
      E is not a scalar, so a decomposable space has dim S >= 2.
    - At w = 1 the zero space decomposes by convention though dim S = 1, so
      w = 1 is never filtered.  S depends only on the span of the
      generators, so dependent generators do not matter.

    Each chunk holds at most _ADJOINT_CHUNK int64 constraint entries: d T
    rows in w^2 unknowns per candidate, T = w(w+1)/2, from one matmul with
    the cached _adjoint_operator(w).
    """
    t_rows = d * w * (w + 1) // 2
    if w < 2 or t_rows < w * w - 1:
        # fewer than w^2 - 1 rows leave dim S >= 2: no candidate can be skipped
        return next((i for i in range(count) if exact(i)), None)
    op = _adjoint_operator(w)
    step = max(1, _ADJOINT_CHUNK // (t_rows * w * w))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        gens = build(lo, hi).reshape((hi - lo) * d, w * w)
        rows = (gens @ op).reshape(hi - lo, t_rows, w * w)
        for i in lo + np.flatnonzero(rank_batched(rows, q) < w * w - 1):
            if exact(int(i)):
                return int(i)
    return None


# ---------------------------------------------------------------------------
# kappa


def kappa_space(space: AltMatrixSpace, *, force: bool = False) -> Tuple[int, Subspace]:
    """(kappa, W): smallest c with a decomposable restriction, dim W = n - c."""
    n, q = space.n, space.q
    check_guard("n", n, gf.GUARD_N, force)
    best = n - 1
    best_u: Optional[np.ndarray] = None
    for b in range(1, n // 2 + 1):
        r1, r2 = _dim_scan(space, b)
        c = r1 - r2
        valid = (n - r1) > (b - r2)  # ker M_U not inside U, so the split is nontrivial
        c = np.where(valid, c, n)
        idx = int(c.argmin())
        if c[idx] < best:
            best = int(c[idx])
            best_u = np.array(subspace_matrices(n, b, q)[idx])
    if best_u is None:
        # degenerate route only: restriction to a line is the zero space
        W = Subspace.from_vectors(np.array(subspace_matrices(n, 1, q)[0]), n, q)
        return n - 1, W
    witness = _orth_witness_from_u(space, best_u)
    W = witness.U.sum_with(witness.V)
    if W.dim != n - best:
        raise AssertionError("the kappa witness must have dimension n - kappa")
    return best, W


def kappa_space_bruteforce(space: AltMatrixSpace, *, force: bool = False) -> Tuple[int, Subspace]:
    """Literal search: c ascending, restrictions in canonical order.

    first_decomposable skips the restrictions that its self-adjoint filter
    proves indecomposable; every other one is tested literally, in order.
    """
    n, q, A = space.n, space.q, space.tensor
    check_guard("n", n, gf.BRUTEFORCE_GUARD_N, force)
    for c in range(n):
        Ws = subspace_matrices(n, n - c, q)
        i = first_decomposable(
            len(Ws), space.dim, n - c, q,
            lambda lo, hi: np.einsum("ubi,kij,ucj->ukbc", Ws[lo:hi], A, Ws[lo:hi]),
            lambda i: is_orth_decomposable(restrict(space, Subspace.from_vectors(Ws[i], n, q)))[0],
        )
        if i is not None:
            return c, Subspace.from_vectors(Ws[i], n, q)
    raise AssertionError("dim-1 restrictions are zero spaces and must decompose")


# ---------------------------------------------------------------------------
# lambda


def cut_dim(space: AltMatrixSpace, U: Subspace, V: Subspace) -> int:
    """dim of {T_U A T_V^t : A in the space} for a direct split U + V = F^n."""
    n, q = space.n, space.q
    if U.n != n or V.n != n or U.q != q or V.q != q:
        raise ValueError("subspaces incompatible with the space")
    if U.dim == 0 or V.dim == 0:
        raise ValueError("cut requires nontrivial U and V")
    if U.dim + V.dim != n or U.intersect(V).dim != 0:
        raise ValueError("U and V must form a direct sum decomposition of F^n")
    if space.dim == 0:
        return 0
    cuts = np.einsum("bi,kij,cj->kbc", U.mat(), space.tensor, V.mat()) % q
    return gf.rank_gf(cuts.reshape(space.dim, -1), q)


def degree_vector(space: AltMatrixSpace, v) -> int:
    """deg(v) = dim of the image space {A v}."""
    v = gf.as_residues(v, space.q)
    if space.dim == 0:
        return 0
    M = (space.tensor @ v) % space.q
    return gf.rank_gf(M, space.q)


def _check_lines_guard(space: AltMatrixSpace, force: bool):
    lines = (space.q**space.n - 1) // (space.q - 1)
    check_guard("lines", lines, gf.LINES_GUARD, force)


def delta_space(space: AltMatrixSpace, *, force: bool = False) -> Tuple[int, np.ndarray]:
    """(delta, v): minimum degree over nonzero vectors, first line rep attaining."""
    _check_lines_guard(space, force)
    degs = _line_degrees(space)
    idx = int(degs.argmin())
    return int(degs[idx]), np.array(gf.projective_lines(space.n, space.q)[idx])


def _cut_ranks_for_u(space: AltMatrixSpace, u_rows: np.ndarray, cap: int):
    """Ranks of the cut matrices for every complement of U, complement order."""
    n, q, m = space.n, space.q, space.dim
    b = len(u_rows)
    P = np.einsum("kij,bi->kbj", space.tensor, u_rows) % q  # (m, b, n)
    Vs = gf.complement_matrices(u_rows, q)
    NV = len(Vs)
    out = np.zeros(NV, dtype=np.int64)
    step = max(1, _CHUNK // max(1, m))
    for lo in range(0, NV, step):
        chunk = Vs[lo : lo + step]
        cuts = np.einsum("kbj,vcj->vkbc", P, chunk).reshape(len(chunk), m, -1)
        out[lo : lo + step] = rank_batched(cuts, q, cap=cap)
    return out


def _degree_code_table(space: AltMatrixSpace) -> np.ndarray:
    """Degree of every nonzero vector, indexed by its base-q digit code."""
    n, q = space.n, space.q
    lines = gf.projective_lines(n, q)
    degs = _line_degrees(space)
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    table = np.zeros(q**n, dtype=np.int64)
    for a in range(1, q):
        table[((a * lines) % q) @ powers] = degs
    return table


def _level_bounds(space: AltMatrixSpace, b: int, best: int, deg_table: np.ndarray) -> np.ndarray:
    """Lower bounds on the cut dimension of each dim-b subspace U, over every split U + V.

    Two lower bounds for the cut dimension across any split U + V:
    - a single row u^t A restricted to V loses at most dim(Vperp n uperp) =
      b - 1 dimensions (u is outside V, so Vperp is not inside uperp), hence
      cut >= deg(u) - (b - 1) for every line u in U;
    - summing the same loss over a basis of U, cut >= dim{B_U A} - b(b-1).
    Both are independent of the choice of V; the bound of U is the larger.
    The rank in the second is capped at best + b(b-1), which only lowers it,
    so a capped bound is still a lower bound, and it reaches best exactly
    when the uncapped one does.
    """
    n, q, m = space.n, space.q, space.dim
    u_stack = subspace_matrices(n, b, q)
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    combos = gf.projective_lines(b, q)
    lines_u = np.einsum("cb,ubn->ucn", combos, u_stack) % q
    max_deg = deg_table[lines_u @ powers].max(axis=1)
    bound = max_deg - (b - 1)
    if m:
        flats = np.einsum("ubi,kij->ukbj", u_stack, space.tensor).reshape(len(u_stack), m, b * n)
        r_flat = rank_batched(flats, q, cap=best + b * (b - 1))
        bound = np.maximum(bound, r_flat - b * (b - 1))
    return bound


def lambda_space(space: AltMatrixSpace, *, force: bool = False) -> LambdaResult:
    """Minimum cut dimension over direct sum splits of F^n.

    Search: splits with dim U = 1 all share cut dimension deg(u) (the cut
    functionals kill u, so restriction to any complement is faithful), hence
    the dim-1 pass contributes exactly delta.  Larger U are scanned with a
    sound lower-bound filter and batched rank computation: _level_bounds
    gives each U of a level a lower bound on its cut, computed once per
    level with the best of the level start as cap, and a U is skipped when
    its bound reaches the current best, so the filter tightens after every
    strict drop within the level.  Capped bounds stay lower bounds.

    The witness is the first split in canonical order (b ascending, then U in
    subspace_matrices order, then V in complement_matrices order) whose cut
    dimension is lambda, and it is recorded during the one search.  A U that
    the filter skips has cut >= its bound >= the best of the moment it is
    passed over (the level start or a later drop), and a U scanned before a
    drop has minimum cut >= the best of that moment; so every U before the U
    of the last strict drop has minimum cut > lambda, that U is the first in
    canonical order whose minimum cut is lambda, and the first argmin over
    its complements is its first V.  With no drop, lambda = delta, and the
    first line of degree delta (the delta_space witness) comes before every
    split with b >= 2.
    """
    n, q = space.n, space.q
    if n < 2:
        raise ValueError("lambda needs ambient dimension >= 2")
    check_guard("n", n, gf.GUARD_N, force)
    dec, w = is_orth_decomposable(space)
    if dec:
        if w is None:
            raise AssertionError("a decomposable space of dimension >= 2 has a split")
        return LambdaResult(0, w.U, w.V, space)
    best, v = delta_space(space, force=force)  # the dim-1 pass
    u_rows = v[None, :]
    v_rows = gf.complement_matrices(u_rows, q)[0]
    if best > 1:
        deg_table = _degree_code_table(space)
        for b in range(2, n // 2 + 1):
            bound = _level_bounds(space, b, best, deg_table)
            Us = subspace_matrices(n, b, q)
            for u_idx in np.flatnonzero(bound < best):
                if bound[u_idx] >= best:
                    continue  # best dropped earlier in this level
                ranks = _cut_ranks_for_u(space, np.array(Us[u_idx]), cap=best)
                j = int(ranks.argmin())
                if ranks[j] < best:
                    best = int(ranks[j])
                    u_rows = np.array(Us[u_idx])
                    v_rows = gf.complement_matrices(u_rows, q)[j]
                    if best <= 1:
                        break
            if best <= 1:
                break
    U = Subspace.from_vectors(u_rows, n, q)
    V = Subspace.from_vectors(v_rows, n, q)
    return LambdaResult(best, U, V, _cut_kernel(space, U, V))


def _cut_kernel(space: AltMatrixSpace, U: Subspace, V: Subspace) -> AltMatrixSpace:
    """Subspace of the space whose members vanish across the split (U, V)."""
    if space.dim == 0:
        return space
    q = space.q
    cuts = np.einsum("bi,kij,cj->kbc", U.mat(), space.tensor, V.mat()) % q
    coeffs = gf.nullspace(cuts.reshape(space.dim, -1).T, q)
    mats = np.einsum("ck,kij->cij", coeffs, space.tensor) % q
    return AltMatrixSpace.from_matrices(mats, space.n, q)


def lambda_space_oracle(space: AltMatrixSpace, *, force: bool = False):
    """Literal definition of lambda: smallest codimension of a decomposable
    subspace of the space itself.  Enumerates coefficient subspaces of F^m.

    first_decomposable skips the subspaces that its self-adjoint filter
    proves indecomposable; every other one is tested literally, in order.

    Returns (value, vanishing_subspace, witness)."""
    n, q, m = space.n, space.q, space.dim
    if n < 2:
        raise ValueError("lambda needs ambient dimension >= 2")
    check_guard("m", m, gf.ORACLE_GUARD_M, force)
    flat = space.tensor.reshape(m, n * n)
    for c in range(m + 1):
        Cs = subspace_matrices(m, m - c, q)
        hit = None

        def exact(i: int) -> bool:
            nonlocal hit
            sub = AltMatrixSpace.from_matrices((Cs[i] @ flat).reshape(m - c, n, n) % q, n, q)
            dec, w = is_orth_decomposable(sub)
            hit = sub, w
            return dec

        i = first_decomposable(
            len(Cs), m - c, n, q, lambda lo, hi: (Cs[lo:hi] @ flat).reshape(hi - lo, m - c, n, n), exact
        )
        if i is not None:
            return (c, *hit)
    raise AssertionError("the zero subspace always decomposes")


# ---------------------------------------------------------------------------
# Full connectivity and the kappa > lambda construction


def is_fully_connected(space: AltMatrixSpace, *, force: bool = False):
    """(flag, None or a failing pair (u, v)): are all pairs of independent
    vectors connected by some matrix of the space?

    The line pairs are checked in row blocks of about _FULLCONN_CELLS cells,
    and the first block with a miss ends the search; the pair returned is
    the first miss in row-major line order."""
    n, q = space.n, space.q
    if n == 1:
        return True, None
    _check_lines_guard(space, force)
    lines = gf.projective_lines(n, q)
    if space.dim == 0:
        return False, (np.array(lines[0]), np.array(lines[1]))
    L = len(lines)
    step = max(1, _FULLCONN_CELLS // L)
    for lo in range(0, L, step):
        block = lines[lo : lo + step]
        hit = np.zeros((len(block), L), dtype=bool)
        for A in space.tensor:
            hit |= (block @ A @ lines.T) % q != 0
        hit[np.arange(len(block)), lo + np.arange(len(block))] = True
        if not hit.all():
            i, j = np.argwhere(~hit)[0]
            return False, (np.array(lines[lo + i]), np.array(lines[j]))
    return True, None


def is_fully_connected_rect(space: GeneralMatrixSpace):
    """Rectangular variant: all pairs of nonzero u in F^s, v in F^t connected."""
    s, t, q = space.s, space.t, space.q
    lu = gf.projective_lines(s, q)
    lv = gf.projective_lines(t, q)
    if space.dim == 0:
        return False, (np.array(lu[0]), np.array(lv[0]))
    hit = np.zeros((len(lu), len(lv)), dtype=bool)
    for B in space.tensor:
        hit |= ((lu @ B @ lv.T) % q) != 0
    if hit.all():
        return True, None
    i, j = np.argwhere(~hit)[0]
    return False, (np.array(lu[i]), np.array(lv[j]))


def _poly_mod(a, b, q):
    """Remainder of polynomial a modulo monic b; coefficients ascending."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    while da >= db and any(a):
        lead = a[da] % q
        if lead:
            shift = da - db
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - lead * bc) % q
        da -= 1
    return [x % q for x in a[:db]] if db > 0 else []


def _monic_polys(degree, q):
    for tail in np.ndindex(*([q] * degree)):
        yield list(tail[::-1]) + [1]  # ascending coefficients, monic


def least_irreducible(s: int, q: int):
    """Lexicographically least monic irreducible of degree s over F_q.

    Order is over the coefficient tuple (c_{s-1}, ..., c_0), high degree
    first.  Coefficients are returned ascending: [c_0, ..., c_{s-1}, 1].
    """
    field(q)
    if s < 1:
        raise ValueError("degree must be >= 1")
    divisor_degrees = range(1, s // 2 + 1)
    for head in np.ndindex(*([q] * s)):
        coeffs = list(head[::-1]) + [1]  # ascending
        if s == 1:
            return coeffs
        reducible = False
        for d in divisor_degrees:
            for g in _monic_polys(d, q):
                rem = _poly_mod(coeffs, g, q)
                if not any(rem):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return coeffs
    raise AssertionError("irreducible polynomials of every degree exist")


def companion_matrix(coeffs, q: int) -> np.ndarray:
    """Companion matrix of a monic polynomial, ascending coefficients."""
    s = len(coeffs) - 1
    C = np.zeros((s, s), dtype=np.int64)
    for i in range(s - 1):
        C[i + 1, i] = 1
    for i in range(s):
        C[i, s - 1] = (-coeffs[i]) % q
    return C


def field_ext_full_space(s: int, q: int) -> GeneralMatrixSpace:
    """The regular representation of F_{q^s}: a fully connected s x s space
    of dimension s in which every nonzero member is invertible."""
    field(q)
    if s < 1:
        raise ValueError("extension degree must be >= 1")
    C = companion_matrix(least_irreducible(s, q), q)
    powers = [np.eye(s, dtype=np.int64)]
    for _ in range(s - 1):
        powers.append((powers[-1] @ C) % q)
    # B_i has columns C_1 e_i, ..., C_s e_i
    mats = [np.stack([P[:, i] for P in powers], axis=1) for i in range(s)]
    return GeneralMatrixSpace.from_matrices(np.array(mats), s, s, q)


def _rect_full_space(s: int, t: int, q: int) -> GeneralMatrixSpace:
    """Fully connected s x t space of dimension max(s, t): powers of the
    degree-max(s,t) companion matrix, truncated to the first s rows and
    first t columns."""
    r = max(s, t)
    sq = field_ext_full_space(r, q)
    mats = sq.tensor[:, :s, :t]
    out = GeneralMatrixSpace.from_matrices(mats, s, t, q)
    if out.dim != r:
        raise AssertionError(f"the truncated {s} x {t} space must keep dimension {r}")
    return out


def kappa_gt_lambda_instance(s: int, t: int, q: int) -> AltMatrixSpace:
    """Alternating space on n = s + t with kappa = n - 1 but lambda <= max(s, t).

    Block construction: A_i = [[0, B_i], [-B_i^t, 0]] for a fully connected
    s x t space {B_i} of dimension d < s + t - 1, plus all elementary
    alternating matrices inside the top-left s x s and bottom-right t x t
    blocks.  The result is fully connected, so kappa = n - 1, while the cut
    along the block split has dimension d.
    """
    if s < 2 or t < 2:
        raise ValueError("need s, t >= 2 so that dim B < s + t - 1")
    rect = _rect_full_space(s, t, q)
    n = s + t
    mats = []
    for B in rect.tensor:
        A = np.zeros((n, n), dtype=np.int64)
        A[:s, s:] = B
        A[s:, :s] = (-B.T) % q
        mats.append(A)
    for i, j in combinations(range(s), 2):
        mats.append(elementary_alt(n, i, j, q))
    for i, j in combinations(range(t), 2):
        mats.append(elementary_alt(n, s + i, s + j, q))
    return AltMatrixSpace.from_matrices(np.array(mats), n, q)


# ---------------------------------------------------------------------------
# Random instances


def random_alt_space(n: int, m: int, q: int, rng: np.random.Generator) -> AltMatrixSpace:
    """Uniform-ish random alternating space of exact dimension m."""
    limit = n * (n - 1) // 2
    if not 0 <= m <= limit:
        raise ValueError(f"dimension must be in [0, {limit}]")
    while True:
        upper = np.triu(rng.integers(0, q, size=(m, n, n)), k=1)
        mats = (upper - upper.transpose(0, 2, 1)) % q
        space = AltMatrixSpace.from_matrices(mats, n, q)
        if space.dim == m:
            return space


def random_invertible(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        T = rng.integers(0, q, size=(n, n)).astype(np.int64)
        if gf.rank_gf(T, q) == n:
            return T


def random_isometry_image(space: AltMatrixSpace, seed: int):
    """(image, T): the pseudo-isometric space {T^t A T} for a random invertible T."""
    rng = np.random.default_rng(seed)
    T = random_invertible(space.n, space.q, rng)
    mats = (T.T @ space.tensor @ T) % space.q
    return AltMatrixSpace.from_matrices(mats, space.n, space.q), T


# ---------------------------------------------------------------------------
# Serialization


def space_to_json(space: AltMatrixSpace) -> str:
    payload = {
        "q": space.q,
        "n": space.n,
        "matrices": [[list(row) for row in A] for A in space.basis],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def matrices_from_json(text: str, kind: str, modulus: str, stack: str, count: Optional[str] = None):
    """(q, n, matrices) from a JSON object {modulus: q, "n": n, stack: [...]}.

    The one reader behind space_from_json, map_from_json and group_from_json.
    It checks, in this order: the JSON itself, the keys (count, when given,
    names the key that must equal the number of matrices), that q, n and the
    count are integers, the field, the shape (a list of n x n matrices of
    integers) and that every entry is a residue in [0, q).  Every failure is
    a ValueError.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} JSON must be an object")
    scalars = (modulus, "n") + ((count,) if count else ())
    for key in scalars + (stack,):
        if key not in payload:
            raise ValueError(f"{kind} JSON missing key '{key}'")
    for key in scalars:
        if not _is_int(payload[key]):
            raise ValueError(f"'{key}' must be an integer")
    q, n, mats = payload[modulus], payload["n"], payload[stack]
    field(q)
    if n < 1:
        raise ValueError("'n' must be >= 1")
    if not isinstance(mats, list):
        raise ValueError(f"'{stack}' must be a list of matrices")
    if count and len(mats) != payload[count]:
        raise ValueError(f"'{count}' does not match the number of matrices in '{stack}'")
    arr = np.array(mats, dtype=object) if mats else np.zeros((0, n, n), dtype=object)
    if arr.ndim != 3 or arr.shape[1:] != (n, n) or not all(_is_int(x) for x in arr.flat):
        raise ValueError(f"'{stack}' must be a list of {n} x {n} integer matrices")
    if (arr < 0).any() or (arr >= q).any():
        raise ValueError(f"matrix entries must be residues in [0, {q})")
    return q, n, arr.astype(np.int64)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def space_from_json(text: str) -> AltMatrixSpace:
    q, n, arr = matrices_from_json(text, "matrix-space", "q", "matrices")
    return AltMatrixSpace.from_matrices(arr, n, q)
