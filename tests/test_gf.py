"""Field arithmetic, RREF, subspace enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blt import gf


def test_field_params_validation():
    assert gf.field(3).q == 3
    assert gf.field(251).q == 251
    for bad in (2, 4, 9, 15, 1, 0, -3, 253):
        with pytest.raises(ValueError):
            gf.field(bad)


def test_half_is_inverse_of_two():
    for q in (3, 5, 7, 11):
        fp = gf.field(q)
        assert (2 * fp.half) % q == 1


def test_inverse_table():
    fp = gf.field(7)
    for a in range(1, 7):
        assert (a * fp.inv[a]) % 7 == 1


def test_rref_frozen_example():
    # det([[1,2],[2,2]]) = -2 = 1 over F_3, invertible
    R, r, piv = gf.rref([[1, 2], [2, 2]], 3)
    assert r == 2 and piv == (0, 1)
    assert (R == np.eye(2)).all()
    # [[1,2],[2,1]] over F_3: second row IS a multiple of the first (2*[1,2])
    R, r, piv = gf.rref([[1, 2], [2, 1]], 3)
    assert r == 1 and piv == (0,)
    # singular: [[1,2],[2,4]] over F_5 collapses to one pivot
    R, r, piv = gf.rref([[1, 2], [2, 4]], 5)
    assert r == 1 and piv == (0,)
    assert (R == [[1, 2], [0, 0]]).all()


def test_nullspace_matches_definition():
    A = [[1, 1, 0], [0, 1, 1]]
    N = gf.nullspace(A, 3)
    assert N.shape == (1, 3)
    assert ((np.array(A) @ N.T) % 3 == 0).all()


def test_solve_matrix_roundtrip_and_inconsistent():
    A = [[1, 2], [0, 1]]
    B = [[2], [1]]
    X = gf.solve_matrix(A, B, 3)
    assert ((np.array(A) @ X) % 3 == np.array(B)).all()
    assert gf.solve_matrix([[1, 1], [2, 2]], [[0], [1]], 3) is None


def test_invert():
    A = [[1, 2], [1, 1]]
    Ainv = gf.invert(A, 3)
    assert ((np.array(A) @ Ainv) % 3 == np.eye(2)).all()
    with pytest.raises(ValueError):
        gf.invert([[1, 2], [2, 4]], 3)  # singular


def test_gaussian_binomial_values():
    assert gf.gaussian_binomial(4, 2, 3) == 130
    assert gf.gaussian_binomial(5, 1, 3) == 121
    assert gf.gaussian_binomial(5, 4, 3) == 121  # symmetry
    assert gf.gaussian_binomial(6, 2, 3) == 11011
    assert gf.gaussian_binomial(3, 1, 5) == 31
    assert gf.gaussian_binomial(4, 0, 3) == 1
    assert gf.gaussian_binomial(2, 3, 3) == 0


@pytest.mark.parametrize("n,k,q", [(3, 1, 3), (3, 2, 3), (4, 2, 3), (3, 1, 5), (4, 2, 5)])
def test_subspace_enumeration_count_and_uniqueness(n, k, q):
    stack = gf.subspace_matrices(n, k, q)
    assert len(stack) == gf.gaussian_binomial(n, k, q)
    # every matrix is already in RREF with k pivots, all distinct
    seen = {bytes(m.tobytes()) for m in stack}
    assert len(seen) == len(stack)
    for m in stack[:50]:
        R, r, _ = gf.rref(m, q)
        assert r == k and (R == m).all()


def test_enumerate_subspaces_matches_stack():
    subs = list(gf.enumerate_subspaces(3, 2, 3))
    assert len(subs) == 13
    assert all(S.dim == 2 for S in subs)


def test_subspace_basics():
    S = gf.Subspace.from_vectors([[1, 1, 0], [0, 0, 1], [1, 1, 1]], 3, 3)
    assert S.dim == 2
    assert S.contains([2, 2, 1])
    assert not S.contains([1, 0, 0])
    L = gf.Subspace.line([2, 2, 0], 3)
    assert L.dim == 1 and S.contains_space(L)
    assert gf.Subspace.zero(3, 3).dim == 0
    assert gf.Subspace.full(3, 3).dim == 3


def test_subspace_sum_intersect():
    A = gf.Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3, 3)
    B = gf.Subspace.from_vectors([[0, 1, 0], [0, 0, 1]], 3, 3)
    assert A.sum_with(B).dim == 3
    I = A.intersect(B)
    assert I.dim == 1 and I.contains([0, 1, 0])


def test_complement_in_direct_sum():
    # pinned example: a complement of <e1+e2> in F_3^2 meets it trivially
    L = gf.Subspace.line([1, 1], 3)
    C = L.complement_in()
    assert C.dim == 1
    assert L.intersect(C).dim == 0
    assert L.sum_with(C).dim == 2


@pytest.mark.parametrize("q", [3, 5])
def test_complement_matrices_all_complements(q):
    u = np.array([[1, 0, 0]])
    comps = gf.complement_matrices(u, q)
    # complements of a line in F_q^3 are counted by q^(1*2)
    assert len(comps) == q**2
    for c in comps[: min(10, len(comps))]:
        joint = np.vstack([u, c])
        assert gf.rank_gf(joint, q) == 3


def test_projective_lines():
    lines = gf.projective_lines(3, 3)
    assert len(lines) == 13  # (3^3-1)/2
    # first nonzero coordinate of each representative is 1
    for v in lines:
        nz = np.nonzero(v)[0]
        assert v[nz[0]] == 1
    assert len({bytes(v.tobytes()) for v in lines}) == 13


def test_all_vectors():
    vecs = gf.all_vectors(2, 3)
    assert vecs.shape == (9, 2)
    assert len({bytes(v.tobytes()) for v in vecs}) == 9


def test_rank_batched_matches_rank_gf():
    rng = np.random.default_rng(0)
    mats = rng.integers(0, 3, size=(40, 4, 5))
    ranks = gf.rank_batched(mats, 3)
    for M, r in zip(mats, ranks):
        assert r == gf.rank_gf(M, 3)


def test_rank_batched_cap_is_exact_below_cap():
    rng = np.random.default_rng(1)
    mats = rng.integers(0, 3, size=(40, 5, 5))
    capped = gf.rank_batched(mats, 3, cap=2)
    full = gf.rank_batched(mats, 3)
    # values below the cap must be exact; at the cap they may be clipped
    assert (np.minimum(full, 2) == np.minimum(capped, 2)).all()


def test_reduce_mod_rowspace():
    basis = np.array([[1, 0, 0], [0, 1, 0]])
    vecs = np.array([[1, 1, 0], [1, 1, 1], [0, 0, 2]])
    red = gf.reduce_mod_rowspace(vecs, basis, 3)
    assert (red[0] == 0).all()
    assert red[1, 2] != 0 and red[2, 2] != 0


def test_membership_mask():
    # membership in the row space: rows that reduce to zero
    u = np.array([[1, 0, 0], [0, 1, 0]])
    vecs = np.array([[1, 2, 0], [0, 0, 1], [2, 1, 0]])
    member = ~gf.reduce_mod_rowspace(vecs, u, 3).any(axis=1)
    assert member.tolist() == [True, False, True]


# property tests


@st.composite
def matrix_and_q(draw, max_dim=5):
    q = draw(st.sampled_from([3, 5, 7]))
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(data, dtype=np.int64), q


@given(matrix_and_q())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_rank_bounds(mq):
    M, q = mq
    R, r, piv = gf.rref(M, q)
    R2, r2, piv2 = gf.rref(R, q)
    assert (R == R2).all() and r == r2 and piv == piv2
    assert 0 <= r <= min(M.shape)
    assert len(piv) == r


@given(matrix_and_q())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(mq):
    M, q = mq
    N = gf.nullspace(M, q)
    assert gf.rank_gf(M, q) + len(N) == M.shape[1]
    if len(N):
        assert ((M @ N.T) % q == 0).all()


@given(matrix_and_q(max_dim=4), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rowspace_membership_closed_under_combination(mq, seed):
    M, q = mq
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, q, size=M.shape[0])
    v = (coeffs @ M) % q
    S = gf.Subspace.from_vectors(M, M.shape[1], q)
    assert S.contains(v)


@given(st.integers(1, 4), st.integers(0, 4), st.sampled_from([3, 5]))
@settings(max_examples=30, deadline=None)
def test_gaussian_binomial_recurrence(n, k, q):
    # [n k]_q = [n-1 k-1]_q + q^k [n-1 k]_q
    if k > n:
        assert gf.gaussian_binomial(n, k, q) == 0
    else:
        lhs = gf.gaussian_binomial(n, k, q)
        rhs = gf.gaussian_binomial(n - 1, k - 1, q) if k >= 1 else 0
        rhs += q**k * gf.gaussian_binomial(n - 1, k, q)
        if k == 0:
            rhs = 1
        assert lhs == rhs
