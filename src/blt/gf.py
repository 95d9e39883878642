"""Exact linear algebra over odd prime fields F_q.

Conventions used throughout the package:

* A vector is a 1-d numpy integer array with entries reduced into [0, q).
* A matrix is a 2-d numpy integer array, same reduction.
* A subspace of F_q^n is represented canonically by the reduced row echelon
  form of any spanning set, with zero rows dropped.  Two subspaces are equal
  iff their canonical matrices are equal, which makes Subspace hashable.

Enumeration of subspaces is deterministic: pivot-column patterns in
lexicographic order, then free entries in row-major base-q counter order.
A level is cached once, as subspace_row_lines: the positions in
projective_lines of each subspace's RREF rows, built in closed form as one
product of per-row line sets per pivot pattern, in int32 (int64 past 2^31
lines).  subspace_matrices gathers the int64 bases from it on each call.
The batched kernel at the bottom, rank_batched, does Gaussian elimination
over a leading batch axis; every connectivity search ends in it.  It
eliminates along the shorter side of each matrix, stores the stack
column-major, never swaps rows (each column's first nonzero row is the pivot
and cancels itself), and delays reduction mod q until a column is read, in
the narrowest of int16/int32/int64 that provably holds (q-1)^2 * c + q for
c columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

MAX_Q = 251

# Size budgets of the exhaustive searches, each set here and nowhere else.  A
# search past its budget raises GuardExceeded unless force=True (CLI:
# --force); MAX_N_CAP is a hard cap of the sweep that force does not lift.
GUARD_N = 6  # n: kappa_space, lambda_space, kappa_map, lambda_map, deg_element, delta_group
LAMBDA_MAP_GUARD_M = 8  # codomain dimension m: lambda_map
# n + m, the exponent of the group order: the structured kappa_group,
# lambda_group and is_centrally_decomposable, and the sweep's group columns.
# Their cost grows with the number of subspace pairs of F_p^n, each with its
# cross rows in F_p^m.  perfbench's chain-n4 picks its groups by this
# budget, so raising it changes that workload.
# n + m = 6 admits every graph on up to 3 vertices (K_3 gives 3^6); past it
# the fast path through the commutator map applies.
GROUP_GUARD_EXP = 6
TABLE_GUARD_ORDER = 3**5  # group order: lattice.small_group builds a Cayley table
LATTICE_GUARD_ORDER = 3**4  # group order: all_subgroups, literal_kappa, literal_lambda
SWEEP_MAP_GUARD_M = 4  # m: the sweep's map columns
LINES_GUARD = 3**8  # lines (q^n - 1)/(q - 1): kappa_space, lambda_space, delta_space, is_fully_connected, VerifyConfig
# subspaces in the largest level of the scans, [n, b]_q at b = n // 2: kappa_space, lambda_space,
# VerifyConfig.  Within GUARD_N and LINES_GUARD it refuses only n = 6 at q = 5 (2558556 solids).
LEVEL_GUARD = 3**11
MAX_N_CAP = 6  # n: the largest graphs the sweep enumerates


class GuardExceeded(ValueError):
    """A brute-force solver was asked to exceed its size guard."""


def check_guard(what: str, value: int, guard: int, force: bool):
    """Raise GuardExceeded when value > guard, unless force."""
    if value > guard and not force:
        raise GuardExceeded(
            f"{what}={value} exceeds the brute-force guard {guard}; pass force=True "
            "(CLI: --force) to run anyway"
        )


def check_lines_guard(n: int, q: int, force: bool):
    """LINES_GUARD on the (q^n - 1)/(q - 1) lines of F_q^n."""
    check_guard("lines", (q**n - 1) // (q - 1), LINES_GUARD, force)


def check_scan_guards(n: int, q: int, force: bool):
    """The lines guard, then LEVEL_GUARD on the largest level the scans walk:
    [n, b]_q over b <= n/2 peaks at b = n // 2."""
    check_lines_guard(n, q, force)
    check_guard("subspaces", gaussian_binomial(n, n // 2, q), LEVEL_GUARD, force)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldParams:
    """An odd prime modulus q with 3 <= q <= MAX_Q."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int):
            raise ValueError(f"modulus must be an int, got {type(self.q).__name__}")
        if self.q < 3 or self.q > MAX_Q or self.q % 2 == 0 or not is_prime(self.q):
            raise ValueError(f"modulus must be an odd prime in [3, {MAX_Q}], got {self.q}")

    @property
    def inv(self) -> list:
        return _inverse_table(self.q)

    @property
    def half(self) -> int:
        # multiplicative inverse of 2, exists since q is odd
        return (self.q + 1) // 2


@lru_cache(maxsize=None)
def field(q: int) -> FieldParams:
    return FieldParams(q)


@lru_cache(maxsize=None)
def _inverse_table(q: int) -> list:
    """[0, 1/1, 1/2, ..., 1/(q-1)] mod q, as Python ints; entry 0 is a placeholder."""
    return [0] + [pow(a, q - 2, q) for a in range(1, q)]


def as_residues(data, q: int) -> np.ndarray:
    """Copy input into an int64 array with entries reduced mod q."""
    field(q)
    return np.array(data, dtype=np.int64) % q


def frozen(arr: np.ndarray) -> tuple:
    """A 2-d or 3-d integer array as nested tuples of Python ints: the
    hashable form of Subspace rows and of the matrices of spaces and maps."""
    out = arr.tolist()
    if arr.ndim == 3:
        return tuple(tuple(map(tuple, A)) for A in out)
    return tuple(map(tuple, out))


# ---------------------------------------------------------------------------
# Row reduction


def rref(mat, q: int):
    """Reduced row echelon form over F_q.

    Returns (R, rank, pivots) where R is an int64 array of mat's shape with
    unit pivots, zeros above and below each pivot, and zero rows sunk to the
    bottom.  The elimination runs on lists of Python ints: the matrices here
    are small (a basis, a stack of a few rows), where numpy's per-call cost
    outweighs the arithmetic.
    """
    R = as_residues(mat, q)
    if R.ndim != 2:
        raise ValueError("rref expects a 2-d matrix")
    rows, cols = R.shape
    inv = _inverse_table(q)
    M = R.tolist()
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for p in range(r, rows):
            if M[p][c]:
                break
        else:
            continue
        M[r], M[p] = M[p], M[r]
        # rows r and below are 0 before column c, so only columns c.. change
        f = inv[M[r][c]]
        top = M[r][c:] = [x * f % q for x in M[r][c:]]
        for i, row in enumerate(M):
            a = row[c]
            if a and i != r:
                row[c:] = [(x - a * y) % q for x, y in zip(row[c:], top)]
        pivots.append(c)
        r += 1
    return np.array(M, dtype=np.int64).reshape(rows, cols), r, tuple(pivots)


def rank_gf(mat, q: int) -> int:
    return rref(mat, q)[1]


def nullspace(mat, q: int) -> np.ndarray:
    """Canonical basis (RREF rows) of {x : mat @ x = 0 over F_q}: one elimination.

    mat is row-reduced with its columns reversed, and R is flipped back, so
    row i of R holds 1 at its pivot p_i and nonzeros elsewhere only at free
    columns before p_i.  The kernel vector of a free column f is 1 at f,
    -R[i, f] at each p_i, and 0 at the other free columns; it is nonzero
    only at f and at pivots after f.  So in ascending f these vectors are
    already the canonical RREF basis: each leads with 1 at its own f, and
    every other vector is 0 there.
    """
    M = as_residues(mat, q)
    n = M.shape[1]
    R, r, rev = rref(M[:, ::-1], q)
    pivots = [n - 1 - p for p in rev]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -R[:r, ::-1][:, free].T % q
    return basis


def invert(mat, q: int) -> np.ndarray:
    M = as_residues(mat, q)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("invert expects a square matrix")
    aug = np.hstack([M, np.eye(n, dtype=np.int64)])
    R, r, pivots = rref(aug, q)
    if r < n or pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]


# ---------------------------------------------------------------------------
# Subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^n held as its canonical RREF basis (row tuples)."""

    n: int
    q: int
    rows: tuple

    def __post_init__(self):
        field(self.q)
        if self.n < 1:
            raise ValueError("ambient dimension must be >= 1")

    @classmethod
    def from_vectors(cls, vectors, n: int, q: int) -> "Subspace":
        arr = as_residues(vectors, q)
        if arr.size == 0:
            arr = arr.reshape(0, n)
        if arr.ndim != 2 or arr.shape[1] != n:
            raise ValueError(f"vectors must have ambient dimension {n}")
        R, r, _ = rref(arr, q)
        return cls(n, q, frozen(R[:r]))

    @classmethod
    def zero(cls, n: int, q: int) -> "Subspace":
        return cls(n, q, ())

    @classmethod
    def full(cls, n: int, q: int) -> "Subspace":
        return cls.from_vectors(np.eye(n, dtype=np.int64), n, q)

    @classmethod
    def line(cls, vector, q: int) -> "Subspace":
        v = as_residues(vector, q)
        return cls.from_vectors(v[None, :], v.shape[0], q)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def mat(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64).reshape(self.dim, self.n)

    def contains(self, vector) -> bool:
        v = as_residues(vector, self.q)
        red = reduce_mod_rowspace(v[None, :], self.mat(), self.q)
        return not red.any()

    def contains_space(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        red = reduce_mod_rowspace(other.mat(), self.mat(), self.q)
        return not red.any()

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_vectors(np.vstack([self.mat(), other.mat()]), self.n, self.q)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row reduce [A|A; B|0], read intersection off zero-left rows."""
        self._check_compatible(other)
        A, B = self.mat(), other.mat()
        top = np.hstack([A, A])
        bot = np.hstack([B, np.zeros_like(B)])
        R, r, _ = rref(np.vstack([top, bot]), self.q)
        left = R[:r, : self.n]
        right = R[:r, self.n :]
        zero_left = ~left.any(axis=1)
        return Subspace.from_vectors(right[zero_left], self.n, self.q)

    def complement_in(self, superspace: Optional["Subspace"] = None) -> "Subspace":
        """Deterministic complement C with self + C = superspace (direct).

        C is spanned by the greedy picks: superspace row i is picked when it
        raises the rank of self plus the superspace rows before it.  That
        holds exactly when column d + i (d = self.dim) of the transposed
        stack [self; superspace]^t is not in the span of the columns before
        it, i.e. is a pivot column of its RREF, so one elimination gives
        every pick.  The picks are rows of an RREF basis, hence already the
        canonical basis of C.
        """
        if superspace is None:
            superspace = Subspace.full(self.n, self.q)
        self._check_compatible(superspace)
        stack = np.vstack([self.mat(), superspace.mat()])
        _, r, pivots = rref(stack.T, self.q)
        if r != superspace.dim:
            raise ValueError("complement_in requires self <= superspace")
        picks = [p - self.dim for p in pivots if p >= self.dim]
        return Subspace(self.n, self.q, tuple(superspace.rows[i] for i in picks))

    def _check_compatible(self, other: "Subspace"):
        if self.n != other.n or self.q != other.q:
            raise ValueError("subspaces live in different ambient spaces")

    def __repr__(self):
        return f"Subspace(n={self.n}, q={self.q}, dim={self.dim})"


def reduce_mod_rowspace(vectors: np.ndarray, basis: np.ndarray, q: int) -> np.ndarray:
    """Reduce each row of `vectors` modulo the RREF row space `basis`."""
    out = vectors.copy() % q
    for row in basis:
        p = int(np.nonzero(row)[0][0])
        out = (out - np.outer(out[:, p], row)) % q
    return out


# ---------------------------------------------------------------------------
# Counting and enumeration


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise AssertionError(f"Gaussian binomial [{n} {k}]_{q} is not an integer")
    return num // den


def subspace_matrices(n: int, k: int, q: int) -> np.ndarray:
    """All k-dim subspaces of F_q^n as a (N, k, n) stack of RREF bases.

    Order: pivot patterns lexicographic, then free entries as a row-major
    base-q counter.  Read-only int64, gathered from projective_lines(n, q)
    at the cached subspace_row_lines(n, k, q) on each call and not cached
    itself: the literal oracles read whole levels, the scans never do.
    """
    out = projective_lines(n, q)[subspace_row_lines(n, k, q)]
    out.setflags(write=False)
    return out


def line_index(vectors: np.ndarray, q: int) -> np.ndarray:
    """Position in projective_lines(n, q) of each vector along the last axis.

    Every vector must be a line representative: its first nonzero entry is 1.
    The lines with that entry at p form one block of q^(n-1-p) in pivot
    order, so the position is the size of the earlier blocks,
    (q^n - q^(n-p)) / (q - 1), plus the base-q value of the entries after p.
    """
    v = np.asarray(vectors)
    piv = (v != 0).argmax(axis=-1)
    if not (np.take_along_axis(v, piv[..., None], axis=-1) == 1).all():
        raise ValueError("line_index expects vectors whose first nonzero entry is 1")
    return _line_index_at(v, piv, q)


def _line_index_at(v: np.ndarray, piv: np.ndarray, q: int) -> np.ndarray:
    """line_index of line representatives v whose first nonzero entries sit at piv."""
    n = v.shape[-1]
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (q**n - q ** (n - piv)) // (q - 1) - powers[piv] + v @ powers


@lru_cache(maxsize=None)
def subspace_row_lines(n: int, k: int, q: int) -> np.ndarray:
    """(N, k) line_index of the RREF rows of each subspace_matrices(n, k, q) entry.

    The one cached enumeration of a level, built in closed form per pivot
    pattern.  An RREF row is a line representative: row i with pivot p
    starts at its block offset (q^n - q^(n-p))/(q - 1), and each of its free
    cells c adds a digit times q^(n-1-c).  So row i runs over one set of
    lines, the offset plus the base-q values of its own free cells, in
    ascending order, and the rows use disjoint cells: the pattern's block
    is the product of the row sets, in canonical order with row 0 as the
    outer axis.  Each set is assigned once into the block reshaped to one
    axis per row.  The dtype is int32 while L = (q^n - 1)/(q - 1) < 2^31,
    so it holds every index up to L - 1, else int64.  Cached and read-only.
    """
    field(q)
    dtype = np.int32 if (q**n - 1) // (q - 1) < 2**31 else np.int64
    out = np.empty((gaussian_binomial(n, k, q), k), dtype=dtype)
    lo = 0
    for pivots in combinations(range(n), k):
        sets, f = [], 0
        for p in pivots:
            s = np.array([(q**n - q ** (n - p)) // (q - 1)], dtype=np.int64)
            for c in range(p + 1, n):
                if c not in pivots:
                    s = (s[:, None] + np.arange(q) * q ** (n - 1 - c)).ravel()
                    f += 1
            sets.append(s)
        block = out[lo : lo + q**f].reshape([len(s) for s in sets] + [k])
        lo += q**f
        for i, s in enumerate(sets):
            block[..., i] = s.reshape([-1 if j == i else 1 for j in range(k)])
    out.setflags(write=False)
    return out


def subspace_lines(Us: np.ndarray, q: int) -> np.ndarray:
    """(N, (q^k - 1)/(q - 1)) line_index of every line inside each subspace of Us.

    Us is an (N, k, n) stack of RREF bases with k >= 1, such as a selection
    of subspace_matrices(n, k, q); nothing is cached, so a caller pays only
    for the subspaces it passes.  The lines of subspace i are the
    combinations projective_lines(k, q) of its RREF rows, in that order.
    The first nonzero coefficient is 1 and meets its row's pivot, where the
    later rows are 0, so each combination is a line representative whose
    first nonzero entry sits at that pivot.  The combinations are one
    matmul in the width of _work_dtype(q, k), whose bound holds a sum of k
    products of residues.
    """
    k = Us.shape[1]
    combos = projective_lines(k, q)
    dtype = _work_dtype(q, k)
    v = _mod(combos.astype(dtype) @ Us.astype(dtype), q)
    piv = (Us != 0).argmax(axis=2)[:, (combos != 0).argmax(axis=1)]
    return _line_index_at(v, piv, q)


def complement_matrices(u_basis: np.ndarray, q: int) -> np.ndarray:
    """All complements of the RREF row space `u_basis` as a (q^(k(n-k)), n-k, n) stack.

    Complements of U are graphs of linear maps from the coordinate complement
    span{e_c : c non-pivot} into U; the maps are enumerated as a row-major
    base-q counter.
    """
    k, n = u_basis.shape
    c = n - k
    if k == 0 or c == 0:
        raise ValueError("complement enumeration needs 0 < dim U < n")
    pivots = [int(np.nonzero(row)[0][0]) for row in u_basis]
    nonpiv = [j for j in range(n) if j not in pivots]
    count = q ** (k * c)
    base = np.zeros((c, n), dtype=np.int64)
    for i, j in enumerate(nonpiv):
        base[i, j] = 1
    vals = np.arange(count, dtype=np.int64)
    powers = q ** np.arange(k * c - 1, -1, -1, dtype=np.int64)
    digits = ((vals[:, None] // powers) % q).reshape(count, c, k)
    out = (base[None, :, :] + digits @ u_basis) % q
    return out


def annihilator_matrices(x_stack: np.ndarray, q: int) -> np.ndarray:
    """Bases of {y : X y = 0} for a (N, c, m) stack of RREF bases X, as (N, m - c, m).

    Closed form: for each non-pivot column j, in ascending order, the row
    e_j - sum_i X[i, j] e_{p_i}, where p_i is the pivot of row i of X.  It
    is killed by X because X[i, p_i'] = [i == i'], and the rows are
    independent because each has its own non-pivot coordinate.
    """
    N, c, m = x_stack.shape
    piv = (x_stack != 0).argmax(axis=2)  # (N, c): the first nonzero of each row
    free = np.ones((N, m), dtype=bool)
    np.put_along_axis(free, piv, False, axis=1)
    nonpiv = np.nonzero(free)[1].reshape(N, m - c)
    out = np.zeros((N, m - c, m), dtype=np.int64)
    b = np.arange(N)[:, None]
    t = np.arange(m - c)[None, :]
    out[b, t, nonpiv] = 1
    coeffs = np.take_along_axis(x_stack, nonpiv[:, None, :], axis=2)  # X[i, j_t], (N, c, m - c)
    out[b[:, :, None], t[:, None, :], piv[:, :, None]] = -coeffs % q
    return out


# ---------------------------------------------------------------------------
# Batched kernels


def _work_dtype(q: int, c: int):
    """Narrowest of int16/int32/int64 that holds every value rank_batched forms.

    Proof of the bound: entries start in [0, q).  A column takes one update
    per earlier column and is reduced when it is read, so it takes at most
    c - 1 unreduced updates, each subtracting a product of two residues in
    [0, (q-1)^2].  Every stored value thus lies in [-(c-1)(q-1)^2, q-1],
    every product and every floor-division step of the reduction within
    +-((q-1)^2 c + q).
    """
    bound = (q - 1) ** 2 * c + q
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in [0, q), as a new array of x's dtype.

    Written as x - q * (x // q): numpy vectorises integer floor division by
    a scalar, while np.remainder runs several times slower.
    """
    y = x // q
    y *= -q
    y += x
    return y


def rank_batched(mats: np.ndarray, q: int, cap: Optional[int] = None) -> np.ndarray:
    """Ranks over F_q of a (B, r, c) stack, elimination run in lockstep.

    The input need not be reduced mod q; negative entries are fine.  With
    `cap` set, elimination stops once every batch entry has found `cap`
    pivots; the values returned are min(rank, cap).

    Kernel:
    - Orientation: rank(M) = rank(M^t), so the stack is transposed when
      needed to eliminate along the shorter side, and stored column-major as
      (columns, B, rows): the columns after the current one are one
      contiguous block.
    - Swap-free elimination: in each column the first nonzero row of each
      entry is its pivot, and a multiple of it is subtracted from every row
      (itself included), touching only the later columns.  The pivot row
      cancels itself there, so it is never picked again; no rows move.
    - Delayed reduction: a column is reduced mod q only when it is read (as
      the pivot column, or its entries of the pivot rows), and the integer
      width is the narrowest that the bound in _work_dtype allows: int16
      for q = 3 up to 8191 columns (the shorter side), int32 or int64
      beyond, and int32 at any size once q > 181.
    """
    mats = np.asarray(mats)
    if mats.ndim != 3:
        raise ValueError("rank_batched expects a (B, r, c) stack")
    Bn, r, c = mats.shape
    if r < c:
        mats = mats.transpose(0, 2, 1)
        r, c = c, r
    limit = c if cap is None else min(cap, c)
    ranks = np.zeros(Bn, dtype=np.int64)
    if Bn == 0 or limit <= 0:
        return ranks
    dtype = _work_dtype(q, c)
    A = np.empty((c, Bn, r), dtype=dtype)
    A[...] = _mod(mats, q).transpose(2, 0, 1)
    inv = np.array(_inverse_table(q), dtype=dtype)
    batch = np.arange(Bn)
    buf = np.empty((c - 1, Bn, r), dtype=dtype)
    for col in range(c):
        vals = _mod(A[col], q)
        piv = (vals != 0).argmax(axis=1)
        pivvals = vals[batch, piv]
        ranks += pivvals != 0
        if col == c - 1 or (ranks >= limit).all():
            break
        # entries without a pivot get factor 0 and are left unchanged
        factors = _mod(vals * inv[pivvals][:, None], q)
        rest = A[col + 1 :]
        pivrows = _mod(rest[:, batch, piv], q)
        prod = buf[: c - col - 1]
        np.multiply(pivrows[:, :, None], factors[None, :, :], out=prod)
        rest -= prod
    return np.minimum(ranks, limit)


@lru_cache(maxsize=None)
def projective_lines(n: int, q: int) -> np.ndarray:
    """One representative per line of F_q^n: normalized so first nonzero entry is 1.

    The lines with that entry at p form one block, the vectors e_p + x with
    x running over all_vectors on the n - 1 - p later coordinates, and the
    blocks come in pivot order p = 0, 1, ...: the rows of
    subspace_matrices(n, 1, q), in that order.  Cached and read-only int64.
    """
    field(q)
    out = np.zeros(((q**n - 1) // (q - 1), n), dtype=np.int64)
    lo = 0
    for p in range(n):
        block = out[lo : lo + q ** (n - 1 - p)]
        lo += len(block)
        block[:, p] = 1
        block[:, p + 1 :] = all_vectors(n - 1 - p, q)
    out.setflags(write=False)
    return out


def all_vectors(n: int, q: int) -> np.ndarray:
    """All q^n vectors of F_q^n in row-major counter order."""
    vals = np.arange(q**n, dtype=np.int64)
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (vals[:, None] // powers) % q
