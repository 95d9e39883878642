"""Alternating bilinear maps F_q^n x F_q^n -> F_q^m as ordered matrix tuples.

A map phi is stored as the tuple (A_1, ..., A_m) with
phi(v, u) = (v^t A_1 u, ..., v^t A_m u).  Unlike a matrix space, the tuple is
ordered and may be linearly dependent (restrictions of surjective maps
usually are).  Surjectivity is equivalent to linear independence of the
tuple.

kappa and lambda mirror the space-level parameters but are searched through
map operations: kappa restricts the domain to subspaces U (the tuple becomes
(T^t A_k T)), lambda quotients the codomain by subspaces X (the tuple is
rewritten in a basis extending X and the X-coordinates are dropped).  A map
is orthogonally decomposable iff the span of its tuple is, so the space
module's decomposability test is reused as the inner oracle; the searches
above it are independent of the pruned space-level solvers, which is what
makes agreement between the two routes a meaningful check.

Both searches walk their candidates (levels ascending, canonical order
within a level, first hit returned) through altspace.first_decomposable.
It ranks one chunk of candidates at a time to find the dimension of each
one's self-adjoint algebra {X : X^t A = A X}; dimension 1 proves the
candidate indecomposable, so it is skipped.  Every other candidate gets the
literal test above (restrict_map or quotient_map, then
is_orth_decomposable), in order, so value and witness are those of the
plain one-at-a-time loop.  These are the toolkit's literal searches for
kappa and lambda at every level: a space is checked through
map_from_space.  kappa_map's walk is altspace.first_restriction, the one
restriction walk that the structured group.kappa_group also takes; only
the exact tests differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from . import gf
from .altspace import (
    AltMatrixSpace,
    alternating_stack,
    first_decomposable,
    first_restriction,
    is_orth_decomposable,
    matrices_from_json,
    matrices_to_json,
    stack_tensor,
)
from .gf import Subspace, check_guard, field, subspace_matrices


@dataclass(frozen=True)
class AltBilinearMap:
    """Ordered tuple of alternating n x n matrices over F_q; codomain F_q^m."""

    n: int
    q: int
    mats: tuple  # m entries, each an n x n tuple-of-tuples; may be dependent

    def __post_init__(self):
        field(self.q)
        if self.n < 1:
            raise ValueError("domain dimension must be >= 1")

    @classmethod
    def from_matrices(cls, mats, n: int, q: int) -> "AltBilinearMap":
        return cls(n, q, gf.frozen(alternating_stack(mats, n, q)))

    @property
    def m(self) -> int:
        return len(self.mats)

    @cached_property
    def tensor(self) -> np.ndarray:
        return stack_tensor(self.mats, self.n)

    def __call__(self, v, u) -> np.ndarray:
        v = gf.as_residues(v, self.q)
        u = gf.as_residues(u, self.q)
        return np.einsum("i,kij,j->k", v, self.tensor, u) % self.q

    def span(self) -> AltMatrixSpace:
        return AltMatrixSpace.from_matrices(self.tensor, self.n, self.q)

    def __repr__(self):
        return f"AltBilinearMap(n={self.n}, q={self.q}, m={self.m})"


def map_from_space(space: AltMatrixSpace) -> AltBilinearMap:
    """The bilinear map of a matrix space, its canonical basis in order."""
    return AltBilinearMap.from_matrices(space.tensor, space.n, space.q)


def is_surjective(phi: AltBilinearMap) -> bool:
    """phi hits all of F_q^m iff its matrix tuple is linearly independent."""
    if phi.m == 0:
        return True
    flat = phi.tensor.reshape(phi.m, -1)
    return gf.rank_gf(flat, phi.q) == phi.m


def restrict_map(phi: AltBilinearMap, U: Subspace) -> AltBilinearMap:
    """phi restricted to U x U, in the RREF coordinates of U; codomain kept."""
    if U.n != phi.n or U.q != phi.q:
        raise ValueError("subspace incompatible with the map")
    if U.dim == 0:
        raise ValueError("cannot restrict to the zero subspace")
    B = U.mat()
    mats = (B @ phi.tensor @ B.T) % phi.q
    return AltBilinearMap.from_matrices(mats, U.dim, phi.q)


def quotient_map(phi: AltBilinearMap, X: Subspace) -> AltBilinearMap:
    """phi composed with the projection F_q^m -> F_q^m / X.

    The codomain basis is (complement of X, then X), where the complement is
    the deterministic greedy one; the trailing dim X coordinates are dropped.
    """
    q, m = phi.q, phi.m
    if X.n != m or X.q != q:
        raise ValueError("quotient subspace must live in the codomain")
    comp = X.complement_in()
    W_rows = np.vstack([comp.mat(), X.mat()])  # new basis, X last
    Winv = gf.invert(W_rows.T, q)  # coordinates: y = Winv @ value
    keep = Winv[: m - X.dim]
    mats = np.einsum("kj,jab->kab", keep, phi.tensor) % q
    return AltBilinearMap.from_matrices(mats, phi.n, q)


def is_map_decomposable(phi: AltBilinearMap):
    """A map decomposes iff phi(U, V) = 0 for some split, iff its span does."""
    return is_orth_decomposable(phi.span())


def kappa_map(phi: AltBilinearMap, *, force: bool = False) -> Tuple[int, Subspace]:
    """Smallest c such that phi restricted to some (n-c)-dim U decomposes.

    Literal search through altspace.first_restriction: c ascending, U in
    canonical order, the first U on which restrict_map(phi, U) decomposes.
    Restrictions to lines are zero maps and decompose by the degenerate
    convention, so c = n - 1 always terminates the search.
    """
    check_guard("n", phi.n, gf.GUARD_N, force)
    return first_restriction(phi.tensor, phi.n, phi.q, lambda U: is_map_decomposable(restrict_map(phi, U))[0])


def lambda_map(phi: AltBilinearMap, *, force: bool = False) -> Tuple[int, Subspace]:
    """Smallest c such that phi quotiented by some c-dim X decomposes.

    Literal search: c ascending, X in canonical order, first hit returned.
    The quotient by X spans {sum_k y_k A_k : y in ann(X)}, and
    first_decomposable skips each X whose span there has a one-dimensional
    self-adjoint algebra (proven indecomposable); every other X, in order,
    gets the literal test on quotient_map(phi, X).  Quotienting by the full
    codomain gives the zero map, so c = m terminates.
    """
    n, m, q = phi.n, phi.m, phi.q
    check_guard("n", n, gf.GUARD_N, force)  # every exact test scans subspaces of F^n
    check_guard("m", m, gf.LAMBDA_MAP_GUARD_M, force)
    if m == 0:
        ok, _ = is_map_decomposable(phi)
        if not ok:
            raise AssertionError("a zero map must decompose")
        return 0, Subspace.zero(1, q)  # placeholder ambient F_q^1 for the empty codomain
    flat = phi.tensor.reshape(m, n * n)
    for c in range(m + 1):
        Xs = subspace_matrices(m, c, q)
        i = first_decomposable(
            len(Xs), m - c, n, q,
            lambda lo, hi: (gf.annihilator_matrices(Xs[lo:hi], q) @ flat).reshape(hi - lo, m - c, n, n),
            lambda i: is_map_decomposable(quotient_map(phi, Subspace.from_vectors(Xs[i], m, q)))[0],
        )
        if i is not None:
            return c, Subspace.from_vectors(Xs[i], m, q)
    raise AssertionError("quotient by the full codomain is a zero map")


# ---------------------------------------------------------------------------
# Serialization


def map_to_json(phi: AltBilinearMap) -> str:
    return matrices_to_json("matrices", phi.mats, q=phi.q, n=phi.n, codomain_dim=phi.m)


def map_from_json(text: str) -> AltBilinearMap:
    q, n, arr = matrices_from_json(text, "bilinear-map", "q", "matrices", count="codomain_dim")
    return AltBilinearMap.from_matrices(arr, n, q)
