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
decompose.  One walk, _kappa_walk, finds this minimum and its first U; a
space decomposes exactly when the walk reaches c = 0, and its split is one
elimination (_orth_split).  The literal searches that cross-check these
solvers are bilinear.kappa_map and bilinear.lambda_map, run on
map_from_space(space).

Those literal searches and the structured group.kappa_group share one
candidate loop, first_decomposable: one batched rank per chunk gives each
candidate's self-adjoint algebra, dimension 1 proves it indecomposable, and
every other candidate gets the caller's own literal test, in canonical
order.  The kappa searches (kappa_map and group.kappa_group) are one
restriction walk on top of it, first_restriction, and differ only in their
exact tests.

The line degrees and kappa's walk are computed once per space object and
shared by kappa, lambda, delta, decomposability and full connectivity, which
is delta = n - 1 (is_fully_connected).  So is the row table: the rows
l^t A_k of every line representative l, built on first use in the narrow
integer width of gf._work_dtype.  Every RREF row is a line representative,
so a level is read only through gf.subspace_row_lines, the int32 line
indices of the RREF rows of each U: the scans gather their stacks from the
table at those indices (_dim_scan, _level_bounds, _cut_ranks_for_u), and
gather from gf.projective_lines only the bases of the U they still need, a
chunk or a U at a time, so no scan builds a whole level of int64 bases.
Products of stacks and bases stay in the table width.  One budget, _CHUNK,
sets how many entries a gathered stack holds; each scan sizes its steps
from it and ranks a chunk with one rank_batched call.

The level scans count before they compute.  Only level 1 ranks M_U by
elimination: its r1 are the line degrees.  At every level, each U first
gets a bound from the degrees of its RREF rows alone (_row_degree_max):
kappa's c(U) = r1 - r2 is at least maxdeg - (b - 1), and a U with a row of
degree n - 1 is never valid (the proof is in _kappa_walk), so kappa's walk
asks _dim_scan for r1 = rank(M_U) = n - dim U^perp and r2 = b - dim(U cap
U^perp) only at the U this count leaves open, and skips a level with none
open.  _dim_scan reads r1 off the orthogonality bit table _perp_table, whose
row u holds the lines of u^perp: U^perp is the AND of the rows of a basis
of U, and its popcount (q^d - 1)/(q - 1) gives d = dim U^perp.  r2 is
forced at b = 1 (0) and where r1 = n (b), is one bit of the table at b = 2,
and is ranked from M_U B_U^t for the other U at b >= 3.  The table's rows
are filled on demand, only those of the lines that the open U use (on the
seed-1 C6 image 13 of 364), so a space that opens no U at b >= 2 fills
none; on K6 and K7 none is open.
lambda's filter reads r2 too: for every complement V, cut(U, V) >=
dim{B_U A} - r2(r2-1)/2 (the proof is in _level_bounds), so lambda_space
ranks the cuts of a U's complements (_cut_ranks_for_u) only where no bound
reaches the current best.  The filter is a cascade from cheap to dear, each
stage for the U the earlier ones leave open: the degrees of the RREF rows of
U together with two counts that bound dim{B_U A} from below (the largest
row degree, and m - C(n - b, 2), since the forms that B_U kills live on
F^n / U), first with the weakest r2 = b and then with the exact r2, then
the capped ranks of the flat stacks B_U A, then the degrees of every line
of U.

A query pays only for what it returns: the walk stops at the first level
that reaches 0, kappa_space reads its witness W = U + U^perp off one
elimination, and LambdaResult builds its vanishing subspace on first read.

A space, a bilinear map and a group's map are each one stack of alternating
matrices, frozen by gf.frozen: alternating_stack validates it, stack_tensor
gives its tensor, matrices_to_json and matrices_from_json write and read it.
The s x t blocks of the kappa > lambda construction are plain stacks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Optional, Tuple

import numpy as np

from . import gf
from .gf import GuardExceeded  # noqa: F401  (re-exported; defined with the budgets in gf)
from .gf import Subspace, check_guard, field, rank_batched, subspace_matrices
from .graphs import Graph

_CHUNK = 2**18  # entries in one gathered stack or bit-table block of the level scans (_degrees, _perp_dims, _dim_scan, _level_bounds, _cut_ranks_for_u)
_ADJOINT_CHUNK = 2**15  # int64 entries in one chunk of first_decomposable's constraint rows


def is_alternating(mats: np.ndarray, q: int) -> bool:
    """Is every matrix of mats (one n x n matrix or a stack) alternating mod q?"""
    diag = np.diagonal(mats, axis1=-2, axis2=-1)
    return bool(((mats + np.swapaxes(mats, -1, -2)) % q == 0).all() and (diag % q == 0).all())


def alternating_stack(mats, n: int, q: int) -> np.ndarray:
    """mats as an (m, n, n) int64 stack of residues, checked alternating: the
    one validation of both from_matrices; every failure is a ValueError."""
    arr = gf.as_residues(mats, q)
    if arr.size == 0:
        arr = arr.reshape(0, n, n)
    if arr.ndim != 3 or arr.shape[1:] != (n, n):
        raise ValueError(f"expected a stack of {n} x {n} matrices")
    if not is_alternating(arr, q):
        raise ValueError("matrix is not alternating (need A^T = -A mod q)")
    return arr


def stack_tensor(mats: tuple, n: int) -> np.ndarray:
    """Read-only (m, n, n) int64 array of m frozen matrices: a space's or a map's tensor."""
    t = np.array(mats, dtype=np.int64).reshape(len(mats), n, n)
    t.setflags(write=False)
    return t


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
        arr = alternating_stack(mats, n, q)
        R, r, _ = gf.rref(arr.reshape(len(arr), n * n), q)
        return cls(n, q, gf.frozen(R[:r].reshape(r, n, n)))

    @classmethod
    def zero(cls, n: int, q: int) -> "AltMatrixSpace":
        return cls(n, q, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def tensor(self) -> np.ndarray:
        return stack_tensor(self.basis, self.n)

    @cached_property
    def _degrees(self) -> np.ndarray:
        """Read-only int64 deg(u) = rank(M_u) of every line u, in
        projective_lines order, which is also the order of level 1: the r1
        of level 1, the one level ranked by elimination, one rank_batched
        call per _CHUNK entries of the row table.  Built on first use, once
        per space object."""
        T = self._row_table
        degs = np.zeros(len(T), dtype=np.int64)
        step = max(1, _CHUNK // max(1, self.dim * self.n))
        for lo in range(0, len(T), step):
            degs[lo : lo + step] = rank_batched(T[lo : lo + step], self.q)
        degs.setflags(write=False)
        return degs

    @cached_property
    def _kappa(self) -> Tuple[int, Optional[np.ndarray]]:
        """_kappa_walk's (c, u_rows), computed once per space object; kappa_space,
        is_orth_decomposable and lambda_space all read it."""
        return _kappa_walk(self)

    @cached_property
    def _row_table(self) -> np.ndarray:
        """Read-only (L, m, n) table: entry i holds the rows (l^t A_k mod q)_k
        of the i-th line representative l of projective_lines(n, q).

        The level scans gather their stacks from it (_dim_scan, _level_bounds,
        _cut_ranks_for_u): RREF rows are line representatives, found by
        gf.subspace_row_lines.  Built on first use, once per space object.
        The dtype is gf._work_dtype(q, n), whose bound n (q-1)^2 + q holds a
        product of a table row with any n residues, so the stacks and their
        products with subspace bases never leave it; it also holds the sums
        of the one matmul that builds the table.
        """
        dt = gf._work_dtype(self.q, self.n)
        t = gf._mod(gf.projective_lines(self.n, self.q).astype(dt) @ self.tensor.astype(dt), self.q)
        t = np.ascontiguousarray(t.transpose(1, 0, 2))  # (m, L, n) -> (L, m, n)
        t.setflags(write=False)
        return t

    @cached_property
    def _perp_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """(bits, filled): the (L, 8 ceil(L/64)) uint8 orthogonality bit table
        and the bool mask of its filled rows, all zero when made on first use.
        Filled row u packs (np.packbits order) the lines x of
        projective_lines(n, q) with u^t A_k x = 0 for every k, the lines of
        u^perp, padded with clear bits to whole 64-bit words.  _perp_dims
        fills the rows its U use and hands out read-only views.
        """
        L = (self.q**self.n - 1) // (self.q - 1)
        return np.zeros((L, -(-L // 64) * 8), dtype=np.uint8), np.zeros(L, dtype=bool)

    def __repr__(self):
        return f"AltMatrixSpace(n={self.n}, q={self.q}, dim={self.dim})"


@dataclass(frozen=True)
class OrthWitness:
    """A direct sum split F^n = U + V with u^t A v = 0 for the whole space."""

    U: Subspace
    V: Subspace


@dataclass(frozen=True)
class LambdaResult:
    """lambda of a space and its witness split F^n = U + V.

    vanishing, the codimension-lambda subspace of the space whose members
    vanish across (U, V) and so decompose via the split, is built from the
    kept space on first read; a caller that needs only the value never
    builds it.
    """

    value: int
    U: Subspace
    V: Subspace
    space: AltMatrixSpace

    @cached_property
    def vanishing(self) -> AltMatrixSpace:
        return _cut_kernel(self.space, self.U, self.V)


# ---------------------------------------------------------------------------
# Construction


def space_from_graph(g: Graph, q: int) -> AltMatrixSpace:
    """Span of the elementary alternating matrices of the edges of g.

    The canonical basis is exactly the elementary matrices in edge-lex order,
    so dim = number of edges.
    """
    field(q)
    mats = [elementary_alt(g.n, i, j, q) for i, j in g.sorted_edges()]
    return AltMatrixSpace(g.n, q, gf.frozen(np.array(mats, dtype=np.int64).reshape(len(mats), g.n, g.n)))


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


def _dim_scan(space: AltMatrixSpace, b: int, idx: np.ndarray):
    """(r1, r2) of the U at the indices idx of level b (canonical order):
    r1 = rank(M_U), r2 = rank(M_U B_U^t).

    M_U stacks the rows u_i^t A_k; its kernel is U^perp, so r1 = n - dim U^perp
    and r2 = b - dim(U cap U^perp).  Nothing is cached: the callers ask only
    for the U that their counting bounds leave open (_kappa_walk,
    _level_bounds).
    - b = 1: r1 is the line degree (_line_degrees), and u^t A u = 0 gives
      r2 = 0.
    - b >= 2: U^perp is the AND of the bit-table rows of the RREF rows of
      U, taken _CHUNK bytes at a time, which _perp_dims fills first where
      they are empty; its popcount (q^d - 1)/(q - 1) gives d = dim U^perp.
      Where r1 = n, U^perp = 0 gives r2 = b.
    - b = 2: the rows of M_U B_U^t are (0, g_k) and (-g_k, 0) with
      g_k = u1^t A_k u2, so r2 = 2 unless u2 lies in u1^perp: one bit of
      the row of u1 that _perp_dims has just filled.
    - b >= 3: M_U and B_U are gathered from the row table and from
      projective_lines, multiplied in the table dtype and ranked for the U
      with r1 < n only.
    Returns int64 arrays at b = 1 and int8 arrays (0 <= r <= n) past it.
    """
    n, q, m = space.n, space.q, space.dim
    if b == 1:
        return _line_degrees(space)[idx], np.zeros(len(idx), dtype=np.int64)
    if not len(idx):  # so an empty ask fills no row of the bit table
        return np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.int8)
    rows = gf.subspace_row_lines(n, b, q)[idx]
    d, bits = _perp_dims(space, rows)
    r1 = n - d
    if b == 2:
        u1, u2 = rows[:, 0], rows[:, 1]
        return r1, 2 - 2 * ((bits[u1, u2 >> 3] >> (7 - (u2 & 7))) & 1).astype(np.int8)
    r2 = np.zeros(len(rows), dtype=np.int8)
    r2[r1 == n] = b
    T = space._row_table
    lines = gf.projective_lines(n, q).astype(T.dtype)
    open_u = np.flatnonzero(r1 < n)
    step = max(1, _CHUNK // max(1, b * m * n))
    for lo in range(0, len(open_u), step):
        sel = open_u[lo : lo + step]
        M = T[rows[sel]].reshape(len(sel), b * m, n)
        r2[sel] = rank_batched(M @ lines[rows[sel]].transpose(0, 2, 1), q)
    return r1, r2


def _perp_dims(space: AltMatrixSpace, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(d, bits): dim U^perp (int8) for each row of line indices spanning a
    U, and a read-only view of the bit table (space._perp_table) in which the
    rows of every line in rows are filled.

    First the rows still empty are filled, once each, found with a bool mask
    (the first np.unique of a process imports numpy.ma, 10-20 ms).  u lies
    in u^perp, so the diagonal is set.  A line of degree n - 1 has u^perp =
    <u>, so its row holds the diagonal bit alone, and since u^t A x =
    -x^t A u its column is empty too.  The other rows are the products of
    their row-table entries with the representatives of the lines of degree
    < n - 1, in the table dtype, whose bound n (q-1)^2 + q holds a row times
    n residues, packed in row blocks of about _CHUNK product entries.

    U^perp is then the AND of the rows of a basis of U.  Its bits are counted
    by np.bitwise_count on whole 64-bit words (numpy >= 2.0), which beat a
    shift-and-mask sum on the sparse n = 7 spaces; a 256-entry byte table
    took three times as long.  A count that is not (q^d - 1)/(q - 1) raises.
    """
    n, q, m = space.n, space.q, space.dim
    bits, filled = space._perp_table
    want = np.zeros(len(filled), dtype=bool)
    want[rows] = True
    new = np.flatnonzero(want & ~filled)
    if new.size:
        degs = _line_degrees(space)
        bits[new, new >> 3] = 0x80 >> (new & 7)
        new, open_lines = new[degs[new] < n - 1], np.flatnonzero(degs < n - 1)
        T = space._row_table
        reps = gf.projective_lines(n, q)[open_lines].T.astype(T.dtype)
        step = max(1, _CHUNK // max(m * len(open_lines), len(filled)))
        row = np.zeros((min(step, len(new)), bits.shape[1] * 8), dtype=bool)
        for lo in range(0, len(new), step):
            idx = new[lo : lo + step]
            prod = gf._mod(T[idx] @ reps, q)  # (rows, m, open lines)
            row[: len(idx), open_lines] = ~prod.any(axis=1)
            bits[idx] = np.packbits(row[: len(idx)], axis=1)
        filled |= want
    bits = bits.view()
    bits.setflags(write=False)
    dim_of = np.full(bits.shape[1] * 8 + 1, -1, dtype=np.int8)  # lines of a d-dim space -> d, any count -> -1
    dim_of[(q ** np.arange(n + 1) - 1) // (q - 1)] = np.arange(n + 1)
    d = np.zeros(len(rows), dtype=np.int8)
    step = max(1, _CHUNK // bits.shape[1])
    for lo in range(0, len(rows), step):
        idx = rows[lo : lo + step]
        mask = bits[idx[:, 0]]
        for j in range(1, idx.shape[1]):
            mask &= bits[idx[:, j]]
        d[lo : lo + step] = dim_of[np.bitwise_count(mask.view(np.uint64)).sum(axis=1)]
    if (d < 0).any():
        raise AssertionError("an orthogonal space must hold (q^d - 1)/(q - 1) lines")
    return d, bits


def _line_degrees(space: AltMatrixSpace) -> np.ndarray:
    """deg(u) for every line u, in projective_lines order.

    For alternating A the row u^t A is -(A u)^t, so deg(u) = rank(M_u): the
    degrees are the r1 of level 1, cached per space object (_degrees).  They
    bound kappa's and lambda's levels before any scan (_row_degree_max),
    decide is_fully_connected and choose the rows and columns of the bit
    table that need products (_perp_dims).
    """
    return space._degrees


def _row_degree_max(space: AltMatrixSpace, b: int) -> np.ndarray:
    """The largest degree of an RREF row of each U of level b, as int16.

    Built column by column from the line degrees at gf.subspace_row_lines,
    in place, so no (N, b) temporary is formed (take gathers a strided
    column about twice as fast as fancy indexing).  A degree is at most n,
    so int16 holds it, and the bounds built on it (within C(n, 2) + n of 0)
    stay below 2^15 for every n whose lines fit in memory.
    """
    degs = _line_degrees(space).astype(np.int16)
    rows = gf.subspace_row_lines(space.n, b, space.q)
    top = degs.take(rows[:, 0])
    for j in range(1, b):
        np.maximum(top, degs.take(rows[:, j]), out=top)
    return top


def _perp_basis(space: AltMatrixSpace, u_rows: np.ndarray) -> np.ndarray:
    """Canonical basis of U^perp = ker M_U for the rows u_rows spanning U."""
    M = np.einsum("bi,kij->bkj", u_rows, space.tensor).reshape(-1, space.n) % space.q
    return gf.nullspace(M, space.q)


def _kappa_walk(space: AltMatrixSpace) -> Tuple[int, Optional[np.ndarray]]:
    """(c, u_rows): the least valid c = r1 - r2 at levels b <= n/2, at most
    n - 1, and the RREF rows (read-only) of its first U in canonical order
    (None if no U goes below n - 1).  U is valid when ker M_U is not inside
    U (n - r1 > b - r2), so its split is nontrivial; only a strictly smaller
    c replaces the kept U, and the walk stops at c = 0, which no later level
    beats.  Read it through space._kappa, which runs it once per object.

    The walk counts before it computes r1.  Take U with RREF rows u_1..u_b,
    r1 = n - dim U^perp and r2 = b - dim(U cap U^perp).
    - c(U) = r1 - r2 = n - dim(U + U^perp).
    - For each row u, U^perp lies in u^perp, of dimension n - deg(u), and u
      lies in U cap u^perp, because u^t A u = 0.  So dim(U + U^perp) <=
      dim(U + u^perp) <= b + (n - deg(u)) - 1, which gives
      c(U) >= maxdeg(rows of U) - (b - 1).
    - A row with deg(u) = n - 1 has u^perp = <u>, inside U.  Then U^perp
      lies in U, so U is not valid.
    A U whose bound reaches the best of the level start, or that has a row
    of degree n - 1, cannot give a c below that best, so it can change
    neither the value nor the first U attaining it.  The bound comes from
    the cached line degrees (_row_degree_max); _dim_scan computes r1 and r2
    only for the U it leaves open, and a level with none open is skipped,
    so a row of the bit table is filled only for a line that some open U
    at b >= 2 uses.  At b = 1 the bound is exact: it is the line degree.
    """
    n, q = space.n, space.q
    best, best_u = n - 1, None
    for b in range(1, n // 2 + 1):
        if best == 0:
            break
        top = _row_degree_max(space, b)
        open_u = np.flatnonzero((top < n - 1) & (top < best + b - 1))
        if not open_u.size:
            continue
        r1, r2 = _dim_scan(space, b, open_u)
        c = np.where(n - r1 > b - r2, r1 - r2, n)
        i = int(c.argmin())
        if c[i] < best:
            best = int(c[i])
            best_u = gf.projective_lines(n, q)[gf.subspace_row_lines(n, b, q)[open_u[i]]]
            best_u.setflags(write=False)
    return best, best_u


def _orth_split(space: AltMatrixSpace, u_rows: np.ndarray) -> OrthWitness:
    """OrthWitness(U, V) for a U with U + U^perp = F^n, from its RREF rows.

    V is the canonical rows of U^perp independent modulo U, read off the
    pivot columns past b of [U; U^perp]^t: one elimination.  A combination
    of U^perp rows lies in U iff it lies in U cap U^perp, so V is also
    U.intersect(perp).complement_in(perp).  Both bases are RREF row subsets.
    """
    n, q, b = space.n, space.q, len(u_rows)
    perp = _perp_basis(space, u_rows)
    picks = [p - b for p in gf.rref(np.vstack([u_rows, perp]).T, q)[2] if p >= b]
    return OrthWitness(Subspace(n, q, gf.frozen(u_rows)), Subspace(n, q, gf.frozen(perp[picks])))


def is_orth_decomposable(space: AltMatrixSpace):
    """(flag, witness): the kappa walk (space._kappa) reaches c = 0 (r1 = r2
    is U + U^perp = F^n, and b < n passes its kernel test); the witness is
    _orth_split of the walk's U.  Zero spaces decompose by convention; n = 1
    has no split."""
    c, u_rows = space._kappa
    if c:
        return False, None
    if u_rows is None:
        return True, None  # the only space is zero; no split of a 1-dim ambient
    return True, _orth_split(space, u_rows)


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


def first_restriction(A: np.ndarray, n: int, q: int, exact: Callable[[Subspace], bool]) -> Tuple[int, Subspace]:
    """(c, U): the first U with exact(U), c ascending and U of dim n - c in
    subspace_matrices order; the restriction walk of kappa at every level.

    A is the (m, n, n) stack of a space, a map or a group's commutator map,
    and exact(U) must be true exactly when the restriction of A to U
    decomposes.  Each level goes through first_decomposable on the
    restriction stacks U A_k U^t, so a U whose restriction has a
    one-dimensional self-adjoint algebra is skipped, and the first U and
    whatever exact recorded for it are those of the plain walk.  Lines
    (w = 1) are never filtered and restrict to zero, which decomposes by
    convention, so c = n - 1 ends the walk.
    """
    for c in range(n):
        Us = subspace_matrices(n, n - c, q)
        i = first_decomposable(
            len(Us), len(A), n - c, q,
            lambda lo, hi: np.einsum("ubi,kij,ucj->ukbc", Us[lo:hi], A, Us[lo:hi]),
            lambda i: exact(Subspace.from_vectors(Us[i], n, q)),
        )
        if i is not None:
            return c, Subspace.from_vectors(Us[i], n, q)
    raise AssertionError("restriction to a line is zero and must decompose")


# ---------------------------------------------------------------------------
# kappa


def kappa_space(space: AltMatrixSpace, *, force: bool = False) -> Tuple[int, Subspace]:
    """(kappa, W): smallest c with a decomposable restriction, dim W = n - c.

    c and its first U come from _kappa_walk, run once per space object
    (space._kappa).  The restriction to W = U + U^perp decomposes along
    _orth_split's (U, V), so W is the RREF of U's rows stacked on a basis
    of U^perp: two eliminations, one for the kernel U^perp (gf.nullspace)
    and one for the span (gf.rref).
    """
    n, q = space.n, space.q
    check_guard("n", n, gf.GUARD_N, force)
    gf.check_scan_guards(n, q, force)
    best, best_u = space._kappa
    if best_u is None:
        # degenerate route only: restriction to a line is the zero space
        return n - 1, Subspace.from_vectors(gf.projective_lines(n, q)[:1], n, q)
    W = Subspace.from_vectors(np.vstack([best_u, _perp_basis(space, best_u)]), n, q)
    if W.dim != n - best:
        raise AssertionError("the kappa witness must have dimension n - kappa")
    return best, W


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


def delta_space(space: AltMatrixSpace, *, force: bool = False) -> Tuple[int, np.ndarray]:
    """(delta, v): minimum degree over nonzero vectors, first line rep attaining."""
    gf.check_lines_guard(space.n, space.q, force)
    degs = _line_degrees(space)
    idx = int(degs.argmin())
    return int(degs[idx]), np.array(gf.projective_lines(space.n, space.q)[idx])


def _cut_ranks_for_u(space: AltMatrixSpace, u_rows: np.ndarray, cap: int):
    """(ranks, Vs): every complement Vs of U, complement order, and the rank
    of the cut matrix of each, capped at cap.

    The rows u^t A_k of the RREF basis u_rows come from the row table; the
    cuts of a chunk of complements V are one matmul P V^t in the table dtype.
    lambda_space reads its witness V off Vs, so no U's complements are built twice.
    """
    n, q, m = space.n, space.q, space.dim
    b = len(u_rows)
    T = space._row_table
    P = T[gf.line_index(u_rows, q)].transpose(1, 0, 2).reshape(m * b, n)  # rows (k, b)
    Vs = gf.complement_matrices(u_rows, q)
    NV = len(Vs)
    out = np.zeros(NV, dtype=np.int64)
    step = max(1, _CHUNK // max(1, m * b * (n - b)))
    for lo in range(0, NV, step):
        chunk = Vs[lo : lo + step]
        cuts = (P @ chunk.transpose(0, 2, 1).astype(T.dtype)).reshape(len(chunk), m, -1)
        out[lo : lo + step] = rank_batched(cuts, q, cap=cap)
    return out, Vs


def _line_complement(v: np.ndarray) -> np.ndarray:
    """complement_matrices(v[None, :], q)[0] of a line representative v in
    closed form: the rows e_c, c ascending, for every c but the pivot of v."""
    return np.delete(np.eye(len(v), dtype=np.int64), int(np.flatnonzero(v)[0]), axis=0)


def _level_bounds(space: AltMatrixSpace, b: int, best: int) -> np.ndarray:
    """Lower bounds on the cut dimension of each dim-b subspace U, clamped at best.

    Two lower bounds for the cut dimension across any split U + V:
    - a single row u^t A restricted to V loses at most dim(Vperp n uperp) =
      b - 1 dimensions (u is outside V, so Vperp is not inside uperp), hence
      cut >= deg(u) - (b - 1) for every line u in U;
    - cut >= dim{B_U A} - r2(r2-1)/2, with r2 = b - dim(U cap U^perp) from
      _dim_scan.  Proof: with B = [B_U; B_V] invertible, the map
      B_U A -> B_U A B^t = [B_U A B_U^t | B_U A B_V^t] is injective, so
      dim{B_U A} <= dim{B_U A B_U^t} + cut(U, V).  The first term counts
      alternating forms on U that vanish on U cap U^perp, that is forms on
      a space of dimension r2, so it is at most r2(r2-1)/2.
    Both are independent of the choice of V.  Two counts bound dim{B_U A}
    from below without a rank.  Let K_U = {A : B_U A = 0}, the kernel of
    A -> B_U A, so dim{B_U A} = m - dim K_U:
    - K_U lies in the kernel K_u for each row u of B_U, and dim K_u =
      m - deg(u), so dim{B_U A} >= deg(u);
    - each A in K_U vanishes when either argument lies in U, so it is an
      alternating form on F^n / U, and dim K_U <= C(n - b, 2), so
      dim{B_U A} >= m - C(n - b, 2).
    The bounds are computed as a cascade, each stage only for the U that
    the earlier ones leave below best, and the result is min(max of the
    stages, best):
    1. the line bound over the b RREF rows of U alone, and the flat bound
       with dim{B_U A} replaced by the larger of the two counts, for every
       U, from the row degrees of _row_degree_max; first with r2 = b, the
       weakest drop C(b, 2), then with the exact r2 of _dim_scan for the U
       that this weak bound leaves below best.  A U whose weak bound
       reaches best has an exact bound at least as large, so the two steps
       close the same U as the exact bound alone.  On K6, K7 and other
       dense spaces the weak bound closes every U, so no r2 is computed;
    2. the flat bound: the (m, b n) stacks B_U A are gathered from the row
       table, _CHUNK entries at a time, and ranked with cap best +
       b(b-1)/2, which only lowers a rank, so a capped bound is still a
       lower bound, and since r2 <= b it reaches best exactly when the
       uncapped one does;
    3. the line bound over every line of U, from gf.subspace_lines of the
       bases of the U still open, gathered from projective_lines.  At m = 0
       every degree is 0 and stage 1 is this bound.
    A U ends below best exactly when the larger of the two bounds is below
    it, so the clamped result equals min(larger bound, best) entry for
    entry: lambda_space compares entries only with best or a smaller value.
    The bounds are int16, as the row degrees are (_row_degree_max).
    """
    n, q, m = space.n, space.q, space.dim
    top = _row_degree_max(space, b)
    bound = top - (b - 1)
    if m:
        T = space._row_table
        rows = gf.subspace_row_lines(n, b, q)
        count = np.maximum(top, m - comb(n - b, 2), out=top)  # dim{B_U A} >= count
        np.maximum(bound, count - comb(b, 2), out=bound)
        open_u = np.flatnonzero(bound < best)
        drop = np.array([comb(r, 2) for r in range(b + 1)], dtype=np.int16)[_dim_scan(space, b, open_u)[1]]
        bound[open_u] = np.maximum(bound[open_u], count[open_u] - drop)
        keep = bound[open_u] < best
        open_u, drop = open_u[keep], drop[keep]
        step = max(1, _CHUNK // (m * b * n))
        for lo in range(0, len(open_u), step):
            sel = open_u[lo : lo + step]
            flats = T[rows[sel]].transpose(0, 2, 1, 3).reshape(len(sel), m, b * n)
            r_flat = rank_batched(flats, q, cap=best + b * (b - 1) // 2)
            bound[sel] = np.maximum(bound[sel], r_flat - drop[lo : lo + step])
        open_u = open_u[bound[open_u] < best]
        degs, lines = _line_degrees(space), gf.projective_lines(n, q)
        step = max(1, _CHUNK // (n * (q**b - 1) // (q - 1)))
        for lo in range(0, len(open_u), step):
            sel = open_u[lo : lo + step]
            bound[sel] = np.maximum(bound[sel], degs[gf.subspace_lines(lines[rows[sel]], q)].max(axis=1) - (b - 1))
    return np.minimum(bound, best, out=bound)


def lambda_space(space: AltMatrixSpace, *, force: bool = False) -> LambdaResult:
    """Minimum cut dimension over direct sum splits of F^n.

    Search: splits with dim U = 1 all share cut dimension deg(u) (the cut
    functionals kill u, so restriction to any complement is faithful), hence
    the dim-1 pass contributes exactly delta.  Larger U are scanned with a
    sound lower-bound filter and batched rank computation: _level_bounds
    gives each U of a level a lower bound on its cut, the larger of
    max deg(u) - (b - 1) over its lines and dim{B_U A} - r2(r2-1)/2,
    computed once per level with the best of the level start as cap and
    clamped at it (a cascade that computes each bound only for the U the
    cheaper ones leave below that best; its first stage bounds dim{B_U A}
    by counting, at least the largest degree of a basis row of U and at
    least m - C(n - b, 2), with the weakest r2 = b before the exact r2 of
    _dim_scan, which on dense spaces such as K6 and K7 closes every level
    before any r1, r2 or rank is computed), and a U
    is skipped when its bound reaches the current best, so the filter
    tightens after every strict drop within the level.  Capped and clamped
    bounds stay lower bounds, and the current best never exceeds the clamp.
    Only the kept U reach _cut_ranks_for_u, which ranks the cut of every
    complement V.

    For lambda >= 1 the witness is the first split in canonical order (b
    ascending, then U in subspace_matrices order, then V in
    complement_matrices order) whose cut dimension is lambda, and it is
    recorded during the one search.  A U that
    the filter skips has cut >= its bound >= the best of the moment it is
    passed over (the level start or a later drop), and a U scanned before a
    drop has minimum cut >= the best of that moment; so every U before the U
    of the last strict drop has minimum cut > lambda, that U is the first in
    canonical order whose minimum cut is lambda, and the first argmin over
    its complements is its first V.  With no drop, lambda = delta, and the
    first line of degree delta (the delta_space witness) comes before every
    split with b >= 2.

    At lambda = 0 the witness is is_orth_decomposable's split, read off the
    space's one kappa walk (space._kappa): _orth_split of the first U in
    canonical order with U + U^perp = F^n.  V is the canonical rows of
    U^perp that are independent modulo U, the greedy complement of U cap
    U^perp inside U^perp, which need not be the first V in
    complement_matrices order.
    """
    n, q = space.n, space.q
    if n < 2:
        raise ValueError("lambda needs ambient dimension >= 2")
    check_guard("n", n, gf.GUARD_N, force)
    gf.check_scan_guards(n, q, force)
    dec, w = is_orth_decomposable(space)
    if dec:
        if w is None:
            raise AssertionError("a decomposable space of dimension >= 2 has a split")
        return LambdaResult(0, w.U, w.V, space)
    best, v = delta_space(space, force=force)  # the dim-1 pass
    u_rows, v_rows = v[None, :], _line_complement(v)
    if best > 1:
        lines = gf.projective_lines(n, q)
        for b in range(2, n // 2 + 1):
            bound = _level_bounds(space, b, best)
            rows = gf.subspace_row_lines(n, b, q)
            for u_idx in np.flatnonzero(bound < best):
                if bound[u_idx] >= best:
                    continue  # best dropped earlier in this level
                ranks, Vs = _cut_ranks_for_u(space, lines[rows[u_idx]], cap=best)
                j = int(ranks.argmin())
                if ranks[j] < best:
                    best, u_rows, v_rows = int(ranks[j]), lines[rows[u_idx]], Vs[j].copy()
                del Vs  # freed before the next U's complements are built
                if best <= 1:
                    break
            if best <= 1:
                break
    # u_rows are the RREF rows of a level subspace or a line representative
    U = Subspace(n, q, gf.frozen(u_rows))
    V = Subspace.from_vectors(v_rows, n, q)
    return LambdaResult(best, U, V, space)


def _cut_kernel(space: AltMatrixSpace, U: Subspace, V: Subspace) -> AltMatrixSpace:
    """Subspace of the space whose members vanish across the split (U, V)."""
    if space.dim == 0:
        return space
    q = space.q
    cuts = np.einsum("bi,kij,cj->kbc", U.mat(), space.tensor, V.mat()) % q
    coeffs = gf.nullspace(cuts.reshape(space.dim, -1).T, q)
    mats = np.einsum("ck,kij->cij", coeffs, space.tensor) % q
    return AltMatrixSpace.from_matrices(mats, space.n, q)


# ---------------------------------------------------------------------------
# Full connectivity and the kappa > lambda construction


def is_fully_connected(space: AltMatrixSpace, *, force: bool = False):
    """(flag, None or a failing pair (u, x)): are all pairs of independent
    vectors connected by some matrix of the space?

    Exactly when delta = n - 1, read off the level-1 scan: u^perp is the
    kernel of the rows u^t A_k, of rank deg(u), and u^t A u = 0 puts u in
    it, so some x independent of u lies in u^perp iff deg(u) < n - 1.  The
    pair is the first miss in row-major line order: u is the first line of
    degree below n - 1, x the first other line of u^perp, from one product
    of u's row-table entry with projective_lines.
    """
    n, q = space.n, space.q
    if n == 1:
        return True, None
    gf.check_lines_guard(n, q, force)
    low = np.flatnonzero(_line_degrees(space) < n - 1)
    if not low.size:
        return True, None
    i = int(low[0])
    T, lines = space._row_table, gf.projective_lines(n, q)
    in_perp = ~gf._mod(T[i] @ lines.T.astype(T.dtype), q).any(axis=0)
    in_perp[i] = False
    return False, (np.array(lines[i]), np.array(lines[int(in_perp.argmax())]))


def is_fully_connected_rect(mats: np.ndarray, q: int):
    """Rectangular variant for a (d, s, t) stack: all pairs of nonzero u in F^s, v in F^t connected."""
    d, s, t = mats.shape
    lu = gf.projective_lines(s, q)
    lv = gf.projective_lines(t, q)
    if d == 0:
        return False, (np.array(lu[0]), np.array(lv[0]))
    hit = np.zeros((len(lu), len(lv)), dtype=bool)
    for B in mats:
        hit |= ((lu @ B @ lv.T) % q) != 0
    if hit.all():
        return True, None
    i, j = np.argwhere(~hit)[0]
    return False, (np.array(lu[i]), np.array(lv[j]))


def field_ext_full_space(s: int, q: int) -> np.ndarray:
    """The regular representation of F_{q^s}: a fully connected s x s space
    of dimension s in which every nonzero member is invertible, as the
    (s, s, s) int64 stack of its canonical RREF basis.

    The span is F_q[C] for the companion C of the first monic f, with
    coefficients (c_{s-1}, ..., c_0) in lexicographic order, for which one
    rank_batched call finds rank s at every line of span{I, C, ..., C^(s-1)}.
    That f is the least irreducible one: f is C's minimal polynomial, so the
    powers are independent and F_q[C] is F_q[x]/(f), a field exactly when f
    is irreducible; a finite ring is a field exactly when every nonzero
    member is invertible, and scaling keeps that, so one member per line
    suffices.  The separation instance reads the lines of F_q^max(s,t), with
    max(s, t) < n far inside LINES_GUARD wherever a solver runs.
    """
    field(q)
    if s < 1:
        raise ValueError("extension degree must be >= 1")
    lines = gf.projective_lines(s, q)
    for head in np.ndindex(*([q] * s)):
        C = np.eye(s, k=-1, dtype=np.int64)
        C[:, s - 1] = -np.array(head[::-1]) % q  # column s - 1 holds -c_0, ..., -c_{s-1}
        powers = np.array([np.eye(s, dtype=np.int64)] * s)
        for k in range(1, s):
            powers[k] = powers[k - 1] @ C % q
        members = (lines @ powers.reshape(s, s * s)).reshape(-1, s, s)
        if (gf.rank_batched(members, q) == s).all():
            break
    else:
        raise AssertionError("irreducible polynomials of every degree exist")
    mats = powers.transpose(2, 1, 0)  # B_i has columns C_1 e_i, ..., C_s e_i
    return gf.rref(mats.reshape(s, s * s), q)[0].reshape(s, s, s)


def _rect_full_space(s: int, t: int, q: int) -> np.ndarray:
    """Fully connected s x t space of dimension max(s, t), as a (max(s, t),
    s, t) stack: powers of the degree-max(s,t) companion matrix, truncated
    to the first s rows and first t columns."""
    r = max(s, t)
    mats = field_ext_full_space(r, q)[:, :s, :t]
    if gf.rank_gf(mats.reshape(r, s * t), q) != r:
        raise AssertionError(f"the truncated {s} x {t} space must keep dimension {r}")
    return mats


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
    n = s + t
    mats = []
    for B in _rect_full_space(s, t, q):
        A = np.zeros((n, n), dtype=np.int64)
        A[:s, s:] = B
        A[s:, :s] = (-B.T) % q
        mats.append(A)
    mats += [elementary_alt(n, i, j, q) for i, j in combinations(range(s), 2)]
    mats += [elementary_alt(n, i, j, q) for i, j in combinations(range(s, n), 2)]
    return AltMatrixSpace.from_matrices(np.array(mats), n, q)


# ---------------------------------------------------------------------------
# Random instances


def random_alt_space(n: int, m: int, q: int, rng: np.random.Generator) -> AltMatrixSpace:
    """Uniform random alternating space of exact dimension m: every
    m-dimensional subspace has |GL_m(F_q)| ordered bases of independent draws."""
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
    return matrices_to_json("matrices", space.basis, q=space.q, n=space.n)


def matrices_to_json(stack: str, mats: tuple, **scalars) -> str:
    """The JSON object {**scalars, stack: mats}, keys sorted, one entry a line:
    the one writer behind space_to_json, map_to_json and group_to_json."""
    return json.dumps({**scalars, stack: mats}, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


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
