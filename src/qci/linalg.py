"""Exact dense linear algebra over a prime field.

Matrices are numpy ``int64`` arrays holding residues in ``[0, p)``.  Row
reduction uses one fixed pivot rule (first nonzero entry, scanning columns
left to right and rows top to bottom, no pivoting heuristics), so every
result is bit-identical across runs and across hosts.  There is one kind
of elimination, to the reduced row echelon form: a rank is its pivot
count and a kernel basis is read off it.

The prime is capped at ``p < 2**21``, so a product of two residues is
below ``2**42``.  The per-pivot loop reduces after every update.  Wide
matrices are reduced in panels of ``_NB`` columns: inside a panel an entry
takes at most ``_NB`` updates before it is reduced, staying below
``2**48`` in int64, and the columns right of the panel receive the panel's
row operations as one float64 matrix product whose every term is a
product of residues.  A sum of at most ``_NB`` such terms stays below
``2**53``, where float64 represents every integer exactly and rounds
nothing, so both paths perform the same exact arithmetic and return the
same bytes.  :func:`matmul` applies the same bound to a plain product: it
cuts the inner dimension into runs of ``2**53 // (p-1)**2`` terms, one
float64 BLAS product each, and reduces in int64.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardError, InternalError

PRIME_MAX = 1 << 21


class PrimeField:
    """The prime of F_p, checked once: below PRIME_MAX and prime by trial division."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool) or p < 2:
            raise GuardError(f"prime must be an integer >= 2, got {p!r}")
        if p >= PRIME_MAX:
            raise GuardError(
                f"prime {p} too large; need p < {PRIME_MAX} so int64 accumulation stays exact"
            )
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise GuardError(f"{p} is not prime (divisible by {d})")
            d += 1
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def _int_matrix(entries) -> np.ndarray:
    """``entries`` as a 2-d int64 array; an int64 array is not copied."""
    M = np.asarray(entries, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {M.shape}")
    return M


def as_matrix(entries, field: PrimeField) -> np.ndarray:
    """Coerce a 2-d array-like to an int64 residue matrix."""
    return _int_matrix(entries) % field.p


# Panel width of the blocked elimination.  A trailing update sums at most
# _NB products of residues, each below (p-1)**2 < 2**42, so with
# _NB <= 2**10 every float64 partial sum is an integer below 2**53 and the
# BLAS product is exact.
_NB = 64
# Narrower matrices have too few columns right of a panel for a BLAS
# product to repay the bookkeeping; they take the per-pivot loop.
_BLOCKED_MIN_COLS = 2 * _NB


def _echelon(M: np.ndarray, p: int):
    """Reduced row echelon form of a copy of ``M`` by the fixed pivot rule.

    Returns (R, pivots): pivots scaled to 1 and eliminated above and below.
    Wide matrices take the blocked elimination, narrow ones the per-pivot
    loop; both perform the same row operations and return identical bytes.
    """
    if M.shape[1] < _BLOCKED_MIN_COLS:
        return _echelon_loop(M, p)
    return _echelon_blocked(M, p)


def _echelon_loop(M: np.ndarray, p: int):
    """Per-pivot elimination over the whole row; the reference for
    :func:`_echelon_blocked`."""
    R = M % p
    m, n = R.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.nonzero(R[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            R[[row, piv]] = R[[piv, row]]
        inv = pow(int(R[row, col]), p - 2, p)
        # Columns left of the pivot are already clear; restrict updates.
        tail = R[:, col:]
        if inv != 1:
            tail[row] = (tail[row] * inv) % p
        colvals = tail[:, 0].copy()
        colvals[row] = 0
        mask = colvals != 0
        if mask.any():
            # factor * pivot_row < p**2 fits int64.
            tail[mask] = (tail[mask] - np.outer(colvals[mask], tail[row])) % p
        pivots.append(col)
        row += 1
    return R, tuple(pivots)


def _echelon_blocked(M: np.ndarray, p: int, nb: int = _NB):
    """Elimination one panel of ``nb`` columns at a time.

    The per-pivot loop runs on the panel columns only.  Beside them it
    carries a block E that writes every row as a combination of the
    panel's pivot rows as they stood before the panel; the columns right
    of the panel then receive the whole panel's row operations as one
    float64 product, restricted to the rows E touches and the columns where
    a pivot row is nonzero, so sparse maps stay cheap.

    Inside a panel, entries are reduced mod p only where a value is read:
    the pivot column and the pivot row.  Every other entry takes at most
    ``nb`` subtractions of a product below p**2 < 2**42 before the panel
    ends and reduces it, so it stays far inside int64.
    """
    R = M % p
    m, n = R.shape
    pivots: list[int] = []
    row = 0
    for c0 in range(0, n, nb):
        if row == m:
            break
        c1 = min(c0 + nb, n)
        w = c1 - c0
        r0 = row
        W = np.zeros((m, w + nb), dtype=np.int64)
        W[:, :w] = R[:, c0:c1]
        # A column that is zero from row r0 down stays so through the
        # panel (its pivot rows are zero there), so it holds no pivot.
        for jc in np.flatnonzero(W[r0:, :w].any(axis=0)).tolist():
            if row == m:
                break
            col = W[:, jc] % p
            nz = col[row:].nonzero()[0]
            if nz.size == 0:
                continue
            piv = row + int(nz[0])
            if piv != row:
                W[[row, piv]] = W[[piv, row]]
                col[[row, piv]] = col[[piv, row]]
                R[[row, piv], c1:] = R[[piv, row], c1:]
            # The pivot row is the k-th pivot row itself plus what earlier
            # pivots of this panel already subtracted from it.
            k = row - r0
            W[row, w + k] = 1
            inv = pow(int(col[row]), p - 2, p)
            tail = W[:, jc : w + k + 1]
            tail[row] = (tail[row] % p * inv) % p
            col[row] = 0
            mask = col != 0
            hits = np.count_nonzero(mask)
            if 2 * hits > m:
                tail -= np.outer(col, tail[row])
            elif hits:
                tail[mask] -= np.outer(col[mask], tail[row])
            pivots.append(c0 + jc)
            row += 1
        W %= p
        R[:, c0:c1] = W[:, :w]
        k = row - r0
        if k == 0 or c1 == n:
            continue
        E = W[:, w : w + k]
        rows = np.flatnonzero(E.any(axis=1))
        cols = c1 + np.flatnonzero(R[r0:row, c1:].any(axis=0))
        U = R[r0:row, cols].astype(np.float64)
        # Pivot rows are wholly described by E, other rows keep themselves.
        R[r0:row, c1:] = 0
        block = np.ix_(rows, cols)
        T = (E[rows].astype(np.float64) @ U).astype(np.int64)
        T += R[block]
        # int64 remainder: float64 fmod is many times slower on values
        # this far above p.
        T %= p
        R[block] = T
    return R, tuple(pivots)


def matmul(A, B, p: int) -> np.ndarray:
    """Exact ``A @ B mod p`` of two residue matrices, by float64 BLAS.

    The inner dimension is cut into runs of ``2**53 // (p-1)**2`` terms
    (2048 at the largest admitted prime): a run sums products below
    ``(p-1)**2``, so every float64 partial sum is an integer of at most
    ``2**53`` and exact.  Each run's product is reduced in int64.
    """
    A = _int_matrix(A)
    B = _int_matrix(B)
    run = (1 << 53) // (p - 1) ** 2
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for s in range(0, A.shape[1], run):
        P = A[:, s : s + run].astype(np.float64) @ B[s : s + run].astype(np.float64)
        out += P.astype(np.int64)
        out %= p
    return out


def rank(M, field: PrimeField) -> int:
    """Rank of ``M``: the pivot count of its reduced row echelon form."""
    return len(_echelon(_int_matrix(M), field.p)[1])


def rref(M, field: PrimeField):
    """Reduced row echelon form. Returns (R, pivot_columns)."""
    return _echelon(_int_matrix(M), field.p)


def kernel_basis(M, field: PrimeField) -> np.ndarray:
    """Canonical basis of the right kernel, one vector per row.

    One elimination gives it: with R the reduced row echelon form of M,
    row i has 1 in the i-th free (non-pivot) column, 0 in the other free
    columns, and minus R's free-column entries at the pivot columns.  A
    kernel vector is fixed by its free coordinates, and R and its pivots
    depend only on the row space, which the kernel determines, so the
    output depends only on the kernel as a subspace, not on M or on the
    path taken.  Rank-nullity is checked on the same elimination: the rows
    of R below its pivot rows must be zero, or the basis would have more
    vectors than the kernel has dimensions.
    """
    A = _int_matrix(M)
    n = A.shape[1]
    R, pivots = _echelon(A, field.p)
    if R[len(pivots) :].any():
        raise InternalError(
            f"elimination of a {A.shape[0]}x{n} matrix left a nonzero row below "
            f"its {len(pivots)} pivots, so its kernel is not {n - len(pivots)}-"
            "dimensional as rank-nullity needs"
        )
    piv = np.array(pivots, dtype=np.intp)
    free = np.setdiff1d(np.arange(n), piv)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = (-R[: piv.size, free].T) % field.p
    return basis


def left_kernel_basis(M, field: PrimeField) -> np.ndarray:
    """Canonical basis of the left kernel (row vectors w with w M = 0)."""
    return kernel_basis(_int_matrix(M).T, field)
