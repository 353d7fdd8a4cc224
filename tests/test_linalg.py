"""Exact linear algebra over small prime fields."""

import numpy as np
import pytest

from qci import (
    GuardError,
    InternalError,
    PRIME_MAX,
    PrimeField,
    as_matrix,
    kernel_basis,
    left_kernel_basis,
    rank,
    rref,
)
from qci import linalg
from qci.core import QciInput, graded_map_matrix
from qci.curve import family


def test_prime_field_accepts_primes():
    assert PrimeField(2).p == 2
    assert PrimeField(32003).p == 32003
    assert PrimeField(31013).p == 31013


def test_prime_field_rejects_bad_moduli():
    with pytest.raises(GuardError):
        PrimeField(1)
    with pytest.raises(GuardError):
        PrimeField(15)
    with pytest.raises(GuardError):
        PrimeField(32004)
    with pytest.raises(GuardError):
        PrimeField(True)
    with pytest.raises(GuardError):
        PrimeField(PRIME_MAX)


def test_rank_zero_matrix(field):
    assert rank(np.zeros((3, 3), dtype=np.int64), field) == 0


def test_rank_identity(field):
    assert rank(np.eye(3, dtype=np.int64), field) == 3


def test_rank_proportional_rows(field):
    M = as_matrix([[1, 2, 3], [2, 4, 6]], field)
    assert rank(M, field) == 1


def test_rank_matches_transpose(field):
    rng = np.random.default_rng(11)
    for _ in range(25):
        m, n = rng.integers(1, 9, size=2)
        M = rng.integers(0, field.p, size=(int(m), int(n)))
        assert rank(M, field) == rank(M.T, field)


def test_rank_permutation_invariant(field):
    rng = np.random.default_rng(13)
    for _ in range(25):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        M = rng.integers(0, field.p, size=(m, n))
        base = rank(M, field)
        assert rank(M[rng.permutation(m)], field) == base
        assert rank(M[:, rng.permutation(n)], field) == base


def test_kernel_of_injective_map_is_empty(field):
    K = kernel_basis(np.eye(2, dtype=np.int64), field)
    assert K.shape == (0, 2)


def test_kernel_of_row_of_ones(field):
    K = kernel_basis(as_matrix([[1, 1]], field), field)
    assert K.tolist() == [[field.p - 1, 1]]


def test_kernel_vectors_annihilate(field):
    rng = np.random.default_rng(17)
    for _ in range(25):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        M = rng.integers(0, field.p, size=(m, n))
        K = kernel_basis(M, field)
        assert rank(M, field) + K.shape[0] == n
        if K.shape[0]:
            assert not ((M @ K.T) % field.p).any()
            # basis rows are independent
            assert rank(K, field) == K.shape[0]


def test_left_kernel_annihilates_from_left(field):
    rng = np.random.default_rng(19)
    M = rng.integers(0, field.p, size=(6, 4))
    N = left_kernel_basis(M, field)
    assert N.shape[0] == 6 - rank(M, field)
    if N.shape[0]:
        assert not ((N @ M) % field.p).any()


def test_kernel_is_deterministic(field):
    rng = np.random.default_rng(23)
    M = rng.integers(0, field.p, size=(5, 9))
    K1 = kernel_basis(M, field)
    K2 = kernel_basis(M.copy(), field)
    assert np.array_equal(K1, K2)


def test_rref_reproduces_row_space(field):
    rng = np.random.default_rng(29)
    M = rng.integers(0, field.p, size=(5, 7))
    R, pivots = rref(M, field)
    assert len(pivots) == rank(M, field)
    stacked = np.vstack([M, R])
    assert rank(stacked, field) == rank(M, field)
    for row_idx, col in enumerate(pivots):
        column = R[:, col]
        assert column[row_idx] == 1
        assert not np.any(np.delete(column, row_idx))


def test_as_matrix_rejects_non_2d(field):
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3], field)


def test_kernel_basis_checks_rank_nullity(field, monkeypatch):
    real = linalg._echelon

    def drops_last_pivot(M, p):
        R, pivots = real(M, p)
        return R, pivots[:-1]

    monkeypatch.setattr(linalg, "_echelon", drops_last_pivot)
    with pytest.raises(InternalError):
        kernel_basis(as_matrix([[1, 1, 0], [0, 1, 1]], field), field)


def test_kernel_basis_is_one_elimination(field, monkeypatch):
    calls = []
    real = linalg._echelon

    def counting(M, p):
        calls.append(M.shape)
        return real(M, p)

    monkeypatch.setattr(linalg, "_echelon", counting)
    rng = np.random.default_rng(31)
    for shape in ((3, 7), (6, 4), (40, linalg._BLOCKED_MIN_COLS + 5)):
        calls.clear()
        kernel_basis(rng.integers(0, field.p, size=shape), field)
        assert calls == [shape]


def _invertible(m, p, rng):
    while True:
        G = rng.integers(0, p, size=(m, m))
        if rank(G, PrimeField(p)) == m:
            return G


@pytest.mark.parametrize("p", [2, 3, 32003, 2097143])
def test_kernel_basis_is_canonical(p):
    # the basis depends only on the kernel: any invertible row mixing of M
    # gives the same bytes, with an identity block on the free columns
    field = PrimeField(p)
    rng = np.random.default_rng(p + 1)
    cross = linalg._BLOCKED_MIN_COLS
    for m, n in ((5, 9), (12, 12), (30, cross - 1), (60, cross + 7)):
        r = int(rng.integers(1, m + 1))
        M = linalg.matmul(
            rng.integers(0, p, size=(m, r)), rng.integers(0, p, size=(r, n)), p
        )
        K = kernel_basis(M, field)
        G = _invertible(m, p, rng)
        assert kernel_basis(linalg.matmul(G, M, p), field).tobytes() == K.tobytes()
        _, pivots = rref(M, field)
        free = np.setdiff1d(np.arange(n), pivots)
        assert K.shape == (free.size, n)
        assert np.array_equal(K[:, free], np.eye(free.size, dtype=np.int64))
        assert not linalg.matmul(M, K.T, p).any()


# ---------------------------------------------------------------------------
# blocked elimination against the per-pivot loop


def _test_matrices(p, rng):
    """Dense, rank-deficient and sparse matrices with zero column blocks,
    on both sides of the blocked path's width threshold and of the panel
    edges."""
    cross = linalg._BLOCKED_MIN_COLS
    shapes = [(1, 7), (9, 1), (30, 63), (20, 64), (40, 65), (50, 129)]
    shapes += [(60, cross - 1), (60, cross), (100, cross + 1), (cross + 9, 40)]
    for m, n in shapes:
        yield rng.integers(0, p, size=(m, n))
        r = int(rng.integers(1, min(m, n) + 1))
        low = rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n))
        yield low % p
        sparse = rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < 0.05)
        sparse[:, n // 3 : n // 3 + 20] = 0
        yield sparse
    if p > 8:
        # a lines-through-a-point map: one zero block, few entries per column
        C = family("lines_through_point", PrimeField(p), d=8)
        yield graded_map_matrix(QciInput.of(*C.f.partials()), 18)


@pytest.mark.parametrize("p", [2, 3, 32003, 2097143])
def test_blocked_echelon_matches_loop(p):
    rng = np.random.default_rng(p)
    for M in _test_matrices(p, rng):
        for A in (M, M.T):
            R, pivots = linalg._echelon_loop(A, p)
            for nb in (5, linalg._NB):
                blocked = linalg._echelon_blocked(A, p, nb)
                assert blocked[1] == pivots
                assert blocked[0].dtype == R.dtype
                assert blocked[0].tobytes() == R.tobytes()


@pytest.mark.parametrize("p", [2, 3, 32003, 2097143])
def test_matmul_matches_python_ints(p):
    rng = np.random.default_rng(p)
    # inner dimensions: empty, short, and at p = 2097143 three exact
    # float64 runs of 2048 terms
    for inner in (0, 1, 7, 130, 4101):
        # entries anywhere, and entries in the top half, whose 4101
        # products at the largest prime sum past 2**53 in one float64 sum
        for low in (0, p // 2):
            X = rng.integers(low, p, size=(3, inner), dtype=np.int64)
            Y = rng.integers(low, p, size=(inner, 4), dtype=np.int64)
            expected = [
                [sum(int(X[i, k]) * int(Y[k, j]) for k in range(inner)) % p
                 for j in range(4)]
                for i in range(3)
            ]
            out = linalg.matmul(X, Y, p)
            assert out.dtype == np.int64 and out.shape == (3, 4)
            assert out.tolist() == expected, inner
