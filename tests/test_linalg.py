"""Exact linear algebra over small prime fields."""

import random

import numpy as np
import pytest

from qci import (
    GuardError,
    HomogPoly,
    InternalError,
    PRIME_MAX,
    PrimeField,
    dim_S,
    kernel_basis,
    monomial_basis,
    rank,
    rref,
)
from qci import core, linalg
from qci.core import QciInput, graded_map_matrix
from qci.curve import family

NB = linalg._NB


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
    assert rank([[1, 2, 3], [2, 4, 6]], field) == 1


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
    K = kernel_basis([[1, 1]], field)
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
    N = kernel_basis(M.T, field)
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


def test_rank_rejects_non_2d(field):
    with pytest.raises(ValueError):
        rank([1, 2, 3], field)


@pytest.mark.parametrize(
    "entries",
    [
        [[0.5, 0]],
        [[1.5, 1], [1, 1]],
        [["3"]],
        np.array([[1]], dtype=object),
        np.array([[1 << 63, 0]], dtype=np.uint64),
    ],
    ids=["half", "fractions", "string", "object", "uint64-overflow"],
)
def test_entries_int64_cannot_hold_are_rejected(field, entries):
    # a float is not truncated, a string not parsed, an unsigned entry
    # past int64 not wrapped
    for op in (rank, kernel_basis, rref):
        with pytest.raises(ValueError):
            op(entries, field)


def test_integer_entries_are_read_exactly(field):
    M = np.arange(6, dtype=np.int64).reshape(2, 3)
    # an int64 matrix, or a view of one, is not copied
    assert linalg._int_matrix(M) is M
    assert np.shares_memory(linalg._int_matrix(M.T), M)
    top = np.array([[(1 << 63) - 1, 0]], dtype=np.uint64)
    assert rank(top, field) == rank([[(1 << 63) - 1, 0]], field)
    assert rank([[True, False], [False, True]], field) == 2
    assert rank(np.array([[3, 6]], dtype=np.int8), field) == 1


def test_kernel_basis_checks_rank_nullity(field, monkeypatch):
    real = linalg._echelon

    def drops_last_pivot(M, p):
        R, pivots = real(M, p)
        return R, pivots[:-1]

    monkeypatch.setattr(linalg, "_echelon", drops_last_pivot)
    with pytest.raises(InternalError):
        kernel_basis([[1, 1, 0], [0, 1, 1]], field)


def test_kernel_basis_is_one_elimination(field, monkeypatch):
    calls = []
    real = linalg._echelon

    def counting(M, p):
        calls.append(M.shape)
        return real(M, p)

    monkeypatch.setattr(linalg, "_echelon", counting)
    rng = np.random.default_rng(31)
    for shape in ((3, 7), (6, 4), (40, NB + 1), (40, 2 * NB + 1)):
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
    for m, n in ((5, 9), (12, 12), (30, NB - 1), (30, NB + 1), (60, 2 * NB + 1)):
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
# the panel kernel against the per-pivot reference


def _node_step_system(p):
    """The widest tall system the x-steps of a degree-9 node curve
    eliminate, a transposed block Y of ``core.left_null``: at most one panel
    wide."""
    field = PrimeField(p)
    rng = random.Random(9)
    skip = {(0, 0, 9), (1, 0, 8), (0, 1, 8)}
    coeffs = {m: rng.randrange(1, p) for m in monomial_basis(9) if m not in skip}
    Q = QciInput.of(*HomogPoly(9, coeffs, field).partials())
    # every x-step from the least degree 8 up to k_max, capturing the
    # matrix each one hands to kernel_basis
    systems = []
    kernel = core.kernel_basis

    def recording(M, field):
        systems.append(np.array(M))
        return kernel(M, field)

    N = np.eye(dim_S(7), dtype=np.int64)
    carried = core._Carried(Q.polys, 25)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "kernel_basis", recording)
        for T in range(8, 26):
            N, carried = core.left_null(Q, T, N, carried)
    A = max((M for M in systems if M.shape[0] > M.shape[1]), key=lambda M: M.shape[1])
    assert 1 < A.shape[1] <= NB
    return A


def _test_matrices(p, rng):
    """Dense, rank-deficient and sparse matrices with zero column blocks on
    both sides of the panel edges, degenerate shapes, and matrices whose
    rows above a panel are zero or nonzero in its pivot columns."""
    shapes = [(1, 7), (9, 1), (30, NB - 1), (20, NB), (40, NB + 1), (50, 2 * NB + 1)]
    shapes += [(60, 2 * NB - 1), (60, 2 * NB), (100, 2 * NB + 1), (2 * NB + 9, 40)]
    for m, n in shapes:
        yield rng.integers(0, p, size=(m, n))
        r = int(rng.integers(1, min(m, n) + 1))
        low = rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n))
        yield low % p
        sparse = rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < 0.05)
        sparse[:, n // 3 : n // 3 + 20] = 0
        yield sparse
    for m, n in ((0, 5), (0, 0), (5, 0), (1, 2 * NB + 3), (2 * NB + 3, 1)):
        yield rng.integers(0, p, size=(m, n))
    yield np.zeros((NB + 7, 2 * NB + 5), dtype=np.int64)
    # the second panel's pivots sit below the first panel's pivot rows,
    # which are zero there, nonzero there, or zero in some rows only
    first = rng.integers(0, p, size=(NB, NB))
    second = rng.integers(0, p, size=(NB, NB + 9))
    for above in (0, 1, 2):
        right = rng.integers(0, p, size=(NB, NB + 9)) * (above > 0)
        if above == 2:
            right[::2] = 0
        yield np.block([[first, right], [np.zeros((NB, NB), dtype=np.int64), second]])
    if p > 8:
        # a lines-through-a-point map: one zero block, few entries per column
        C = family("lines_through_point", PrimeField(p), d=8)
        yield graded_map_matrix(QciInput.of(*C.f.partials()), 18)
    if p > 24:
        yield _node_step_system(p)


def _assert_matches_reference(A, p, reference, widths):
    R, pivots = reference(A, p)
    for nb in widths:
        out, got = linalg._echelon(A, p, nb)
        assert got == pivots, (A.shape, nb)
        assert out.dtype == R.dtype and out.shape == R.shape
        assert out.tobytes() == R.tobytes(), (A.shape, nb)
    return pivots


@pytest.mark.parametrize("p", [2, 3, 32003, 2097143])
def test_echelon_matches_reference(p, rref_reference):
    rng = np.random.default_rng(p)
    for M in _test_matrices(p, rng):
        for A in (M, M.T):
            _assert_matches_reference(A, p, rref_reference, (1, 5, NB))


def test_echelon_is_exact_at_the_largest_prime(rref_reference):
    # entries in the top half of [0, p): the lazy panel sums come closest
    # to 2**48 and the E, trailing and above-panel products closest to
    # 2**53.  Each matrix has a full first panel of NB pivots, whose rows
    # are dense, so nonzero, above the pivots of the second.
    p = 2097143
    rng = np.random.default_rng(7)
    full = rng.integers(p // 2, p, size=(2 * NB + 40, 3 * NB + 5))
    rows = full.copy()
    rows[NB + 20 :] = rows[: NB + 20]
    cols = full.copy()
    cols[:, 2 * NB :] = cols[:, : NB + 5]
    for A, deficient in ((full, False), (rows, True), (cols, True)):
        pivots = _assert_matches_reference(A, p, rref_reference, (NB,))
        assert pivots[NB - 1] == NB - 1 and len(pivots) > NB
        assert (len(pivots) < min(A.shape)) == deficient


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
