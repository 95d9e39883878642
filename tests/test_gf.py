"""Field arithmetic, RREF, subspace enumeration."""

import ast
import re
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blt
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


def _assert_rref(R, r, piv):
    """Unit pivots in ascending columns, each row 0 before its pivot, zeros
    above and below each pivot, and zero rows last."""
    assert len(piv) == r and list(piv) == sorted(set(piv))
    assert not R[r:].any()
    for i, p in enumerate(piv):
        assert R[i, p] == 1 and not R[i, :p].any()
        assert np.count_nonzero(R[:, p]) == 1


RREF_SHAPES = [(0, 5), (5, 0), (12, 5), (4, 16), (28, 64)]


def _rref_inputs(shape, q):
    """A uniform matrix and a low-rank product of that shape."""
    rng = np.random.default_rng([q, *shape])
    rows, cols = shape
    k = min(shape) // 2
    return [rng.integers(0, q, shape), rng.integers(0, q, (rows, k)) @ rng.integers(0, q, (k, cols)) % q]


@pytest.mark.parametrize("q", [3, 5, 251])
@pytest.mark.parametrize("shape", RREF_SHAPES)
def test_rref_is_reduced_idempotent_and_keeps_the_row_space(q, shape):
    for M in _rref_inputs(shape, q):
        R, r, piv = gf.rref(M, q)
        assert R.shape == M.shape and R.dtype == np.int64
        _assert_rref(R, r, piv)
        R2, r2, piv2 = gf.rref(R, q)
        assert np.array_equal(R, R2) and (r2, piv2) == (r, piv)
        # the same row space: rank r on both sides, by the independent batched kernel
        assert gf.rank_batched(M[None], q)[0] == r
        assert not gf.reduce_mod_rowspace(M, R[:r], q).any()


@pytest.mark.parametrize("q", [3, 5, 251])
@pytest.mark.parametrize("shape", RREF_SHAPES)
def test_nullspace_is_the_canonical_kernel_basis(q, shape):
    for M in _rref_inputs(shape, q):
        N = gf.nullspace(M, q)
        rank = gf.rank_batched(M[None], q)[0]
        assert N.shape == (shape[1] - rank, shape[1]) and N.dtype == np.int64
        assert not (M @ N.T % q).any()
        _assert_rref(N, len(N), tuple(int(np.flatnonzero(row)[0]) for row in N))
        assert gf.rank_batched(N[None], q)[0] == len(N)


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


def _greedy_complement(S, sup):
    """Reference: pick each row of sup that raises the rank of S plus the rows before it."""
    if sup is None:
        sup = gf.Subspace.full(S.n, S.q)
    picked, cur, r = [], S.mat(), S.dim
    for w in sup.mat():
        cand = np.vstack([cur, w[None, :]])
        rr = gf.rank_gf(cand, S.q)
        if rr > r:
            picked.append(w)
            cur, r = cand, rr
    return gf.Subspace.from_vectors(np.array(picked).reshape(len(picked), S.n), S.n, S.q)


def _complement_cases():
    rng = np.random.default_rng(23)
    for q in (3, 5, 251):
        for n in range(1, 7):
            for _ in range(12):
                k = int(rng.integers(0, n + 1))
                sup = gf.Subspace.from_vectors(rng.integers(0, q, size=(k, n)), n, q)
                d = int(rng.integers(0, sup.dim + 1))
                S = gf.Subspace.from_vectors(rng.integers(0, q, size=(d, sup.dim)) @ sup.mat(), n, q)
                yield S, sup
                yield S, None
            full = gf.Subspace.full(n, q)
            yield gf.Subspace.zero(n, q), full  # self = 0
            yield gf.Subspace.zero(n, q), None
            yield full, full  # self = superspace
            yield sup, sup


def test_complement_in_matches_the_greedy_definition():
    for S, sup in _complement_cases():
        C = S.complement_in(sup)
        assert C == _greedy_complement(S, sup), (S.rows, sup)
        target = gf.Subspace.full(S.n, S.q) if sup is None else sup
        assert S.sum_with(C) == target and S.intersect(C).dim == 0
    with pytest.raises(ValueError):
        gf.Subspace.line([1, 0], 3).complement_in(gf.Subspace.line([0, 1], 3))


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


def _line_cases():
    for q in (3, 5):
        for n in range(1, 7):
            for k in range(1, n + 1):
                # n = 6 at q = 5 keeps the small levels: the int64 einsum of
                # 508431 planes (k = 2, 4) or 2558556 solids (k = 3) takes GBs
                if q == 3 or n < 6 or k in (1, 5, 6):
                    yield n, k, q


@pytest.mark.parametrize("n, k, q", list(_line_cases()))
def test_subspace_lines_match_the_einsum_lines(n, k, q):
    L = (q**n - 1) // (q - 1)
    assert np.array_equal(gf.line_index(gf.projective_lines(n, q), q), np.arange(L))
    Us = gf.subspace_matrices(n, k, q)
    ref = gf.line_index(np.einsum("cb,ubn->ucn", gf.projective_lines(k, q), Us) % q, q)
    got = gf.subspace_lines(Us, q)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


def _literal_level(n, k, q):
    """Reference enumeration: pivot tuples in lexicographic order, then the
    free cells as a row-major base-q counter, each RREF basis written out."""
    out = []
    for pivots in combinations(range(n), k):
        cells = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
        for digits in product(range(q), repeat=len(cells)):
            rows = [[int(c == p) for c in range(n)] for p in pivots]
            for (i, c), d in zip(cells, digits):
                rows[i][c] = d
            out.append(rows)
    return np.array(out, dtype=np.int64).reshape(len(out), k, n)


@pytest.mark.parametrize("n, q", [(n, 3) for n in range(1, 7)] + [(n, q) for q in (5, 7) for n in range(1, 5)])
def test_level_enumeration_matches_the_literal_reference(n, q):
    for k in range(n + 1):
        ref = _literal_level(n, k, q)
        got = gf.subspace_matrices(n, k, q)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, ref), (n, k, q)
        if k:
            rows = gf.subspace_row_lines(n, k, q)
            assert rows.dtype == np.int32 and not rows.flags.writeable
            assert np.array_equal(rows, gf.line_index(ref, q)), (n, k, q)
    lines = gf.projective_lines(n, q)
    assert lines.dtype == np.int64 and not lines.flags.writeable
    assert np.array_equal(lines, _literal_level(n, 1, q)[:, 0, :])


def test_narrow_widths_hold_every_value_up_to_max_q():
    # every prime q <= MAX_Q at every n the lines budget admits, and forced n = 7 at q = 3:
    # the row-line dtype holds the last line index L - 1, and the int8 of the
    # level scans holds r1, r2 <= n
    cases = [(7, 3)]
    for q in (p for p in range(3, gf.MAX_Q + 1) if gf.is_prime(p)):
        n = 1
        while (q ** (n + 1) - 1) // (q - 1) <= gf.LINES_GUARD:
            n += 1
        cases += [(k, q) for k in range(1, n + 1)]
    assert (8, 3) in cases and (9, 3) not in cases and (2, gf.MAX_Q) in cases and (3, gf.MAX_Q) not in cases
    for n, q in cases:
        L = (q**n - 1) // (q - 1)
        assert np.iinfo(gf.subspace_row_lines(n, 1, q).dtype).max >= L - 1, (n, q)
        assert np.iinfo(np.int8).max >= n
    # forced past the budget: the last lines of F_251^2 and F_251^3, pivot n - 2 with every digit, then e_{n-1}
    q = gf.MAX_Q
    for n in (2, 3):
        tail = [[0] * (n - 2) + [1, d] for d in range(q)] + [[0] * (n - 1) + [1]]
        rows = gf.subspace_row_lines(n, 1, q)
        assert rows[-1, 0] == (q**n - 1) // (q - 1) - 1
        assert np.array_equal(rows[-(q + 1) :, 0], gf.line_index(np.array(tail), q))


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
    full = gf.rank_batched(mats, 3)
    assert len(set(full.tolist())) > 1
    for cap in range(0, 7):
        capped = gf.rank_batched(mats, 3, cap=cap)
        assert capped.dtype == np.int64
        assert (capped == np.minimum(full, cap)).all()


def _assert_ranks_match(mats, q, caps=(None,)):
    expected = np.array([gf.rank_gf(M, q) for M in mats], dtype=np.int64)
    for cap in caps:
        got = gf.rank_batched(mats, q, cap=cap)
        assert got.dtype == np.int64
        want = expected if cap is None else np.minimum(expected, cap)
        assert (got == want).all(), (q, mats.shape, cap)


# the int16/int32 switch falls between 181 and 191 already at one column
WIDTH_QS = (3, 5, 13, 181, 191, 251)


@pytest.mark.parametrize("q", WIDTH_QS)
@pytest.mark.parametrize("shape", [(30, 9, 4), (30, 4, 9), (30, 7, 7), (10, 1, 6), (10, 6, 1)])
def test_rank_batched_tall_wide_square(q, shape):
    rng = np.random.default_rng(q * 1000 + shape[1] * 10 + shape[2])
    mats = rng.integers(0, q, size=shape)
    mats[:5] = 0  # some zero rows and columns, and some zero matrices
    mats[:3, :, 0] = 0
    mats[3:6, 0, :] = 0
    _assert_ranks_match(mats, q, caps=(None, 0, 1, 3))


@pytest.mark.parametrize("q", WIDTH_QS)
def test_rank_batched_low_rank_products(q):
    rng = np.random.default_rng(q)
    for k in (1, 2, 3):
        left = rng.integers(0, q, size=(20, 8, k))
        right = rng.integers(0, q, size=(20, k, 6))
        _assert_ranks_match(left @ right, q, caps=(None, k))
        _assert_ranks_match((left @ right).transpose(0, 2, 1), q)


@pytest.mark.parametrize("q", WIDTH_QS)
def test_rank_batched_all_top_residue_and_unreduced_input(q):
    top = np.full((4, 6, 9), q - 1)
    assert (gf.rank_batched(top, q) == 1).all()
    rng = np.random.default_rng(q + 7)
    mats = rng.integers(0, q, size=(25, 6, 8))
    shifted = mats + q * rng.integers(-40, 40, size=mats.shape)  # unreduced, many negative
    assert (shifted < 0).any()
    assert (gf.rank_batched(shifted, q) == gf.rank_batched(mats, q)).all()
    _assert_ranks_match(shifted, q)
    assert (gf.rank_batched(-mats, q) == gf.rank_batched(mats, q)).all()


def _worst_growth(c: int, q: int, last: int) -> np.ndarray:
    """c x c matrix whose last entry takes c - 1 unreduced updates of -(q-1)^2.

    Rows j < c-1 are e_j + (q-1) e_{c-1}; each pivots its own column with
    value 1.  The last row is q-1 in every other column, so each step hits
    it with factor q-1 times the pivot row's q-1.
    """
    M = np.zeros((c, c), dtype=np.int64)
    M[np.arange(c - 1), np.arange(c - 1)] = 1
    M[: c - 1, c - 1] = q - 1
    M[c - 1, : c - 1] = q - 1
    M[c - 1, c - 1] = last
    return M


@pytest.mark.parametrize("c,dtype", [(227, np.int16), (228, np.int32)])
def test_rank_batched_at_the_int16_bound_q13(c, dtype):
    q = 13
    assert gf._work_dtype(q, c) is dtype
    # the last pivot value is last - (c-1) mod q: full rank, or rank c - 1
    singular = (c - 1) % q
    worst = np.stack([_worst_growth(c, q, 0), _worst_growth(c, q, singular)])
    assert gf.rank_batched(worst, q).tolist() == [c, c - 1]
    _assert_ranks_match(worst, q)
    rng = np.random.default_rng(c)
    tall = rng.integers(0, q, size=(2, c + 5, c))
    tall[1, :, 3] = tall[1, :, 1]  # one repeated column: rank c - 1
    _assert_ranks_match(tall, q, caps=(None, c - 1))
    _assert_ranks_match(tall.transpose(0, 2, 1), q)


def test_work_dtype_follows_the_bound():
    for q in (3, 5, 13, 181, 191, 251):
        for c in (1, 2, 10, 227, 228, 8191, 8192, 40000):
            bound = (q - 1) ** 2 * c + q
            dtype = gf._work_dtype(q, c)
            assert bound <= np.iinfo(dtype).max
            narrower = {np.int32: np.int16, np.int64: np.int32}.get(dtype)
            assert narrower is None or bound > np.iinfo(narrower).max
    assert gf._work_dtype(3, 8191) is np.int16
    assert gf._work_dtype(181, 1) is np.int16
    assert gf._work_dtype(191, 1) is np.int32


def test_rank_batched_empty_shapes():
    for shape in [(0, 3, 4), (0, 0, 0), (3, 0, 4), (3, 4, 0)]:
        out = gf.rank_batched(np.zeros(shape, dtype=np.int64), 3)
        assert out.dtype == np.int64 and out.shape == (shape[0],)
        assert not out.any()
        assert not gf.rank_batched(np.zeros(shape, dtype=np.int64), 3, cap=2).any()
    with pytest.raises(ValueError):
        gf.rank_batched(np.zeros((3, 3), dtype=np.int64), 3)


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


def test_budgets_are_the_readme_guards_list_and_all_read():
    budgets = {name for name, value in vars(gf).items() if "GUARD" in name and isinstance(value, int)}
    budgets.add("MAX_N_CAP")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\nGuards:", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^- `([A-Z_]+) = ", section, flags=re.M)) == budgets
    # a budget whose search is gone is read nowhere but its own definition
    read = set()
    for path in Path(blt.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert budgets - read == set()
