"""Exact dense linear algebra over a prime field.

Matrices are numpy ``int64`` arrays holding residues in ``[0, p)``.  Row
reduction uses one fixed pivot rule (first nonzero entry, scanning columns
left to right and rows top to bottom, no pivoting heuristics), so every
result is bit-identical across runs and across hosts.  There is one kind
of elimination, to the reduced row echelon form: a rank is its pivot
count and a kernel basis is read off it.

The prime is capped at ``p < 2**21``, so a product of two residues is
below ``2**42``.  One kernel, :func:`_echelon`, eliminates every matrix,
one panel of ``_NB`` columns at a time.  Inside a panel an entry takes at
most ``_NB`` updates before it is reduced, staying below ``2**48`` in
int64.  The rows above the panel and the columns right of it receive the
panel's row operations as float64 matrix products of residues whose inner
dimension is at most ``_NB``, so every sum stays below ``2**53``, where
float64 represents every integer exactly and rounds nothing: the
arithmetic is exact and the bytes do not depend on the panel width.
:func:`matmul` applies the same bound to a plain product: it cuts the
inner dimension into runs of ``2**53 // (p-1)**2`` terms, one float64
BLAS product each, and reduces in int64.
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


# Panel width of the elimination.  An entry of a panel takes at most _NB
# updates before it is reduced, each a product of residues below
# (p-1)**2 < 2**42, and a product after the panel sums at most _NB such
# products, so with _NB <= 2**10 every value stays below 2**53: exact in
# float64 and far inside int64.
_NB = 64


def _echelon(M: np.ndarray, p: int, nb: int = _NB):
    """Reduced row echelon form of a copy of ``M`` by the fixed pivot rule.

    Returns (R, pivots): pivots scaled to 1 and eliminated above and below.
    One kernel serves every width: the columns are taken one panel of
    ``nb`` at a time, and a matrix of at most ``nb`` columns is one panel.

    The panel is held transposed, one C-contiguous block whose columns are
    the rows from the panel's first pivot row ``r0`` down, so the rank-one
    update of each pivot writes contiguous rows.  The rows above ``r0``,
    pivot rows of earlier panels, take no per-pivot work: with ``X`` their
    entries in the panel's new pivot columns, their panel columns lose
    ``X`` times the reduced pivot rows once the panel is done.  When
    columns lie right of the panel, the panel also carries a block E that
    writes every row from ``r0`` down as a combination of the panel's
    pivot rows as they stood before it.  The columns right of the panel
    then receive the whole panel's row operations as one float64 product
    of E, and of ``-X`` times E's pivot rows for the rows above, with the
    pivot rows' trailing parts, restricted to the rows it changes and the
    columns where a pivot row is nonzero, so sparse maps stay cheap.  Row
    swaps are two-row swaps of the trailing columns, made per pivot.

    Inside a panel, entries are reduced mod p only where a value is read:
    the pivot column and the pivot row.  Every other entry takes at most
    ``nb`` subtractions of a product below p**2 < 2**42 before the panel
    ends and reduces it, so it stays below 2**48 in int64.  Every float64
    product has an inner dimension of at most ``nb`` over residues, so its
    sums stay below 2**53, where float64 rounds nothing.
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
        # E is needed only where columns lie right of the panel.
        e = min(w, m - r0) if c1 < n else 0
        P = np.zeros((w + e, m - r0), dtype=np.int64)
        P[:w] = R[r0:, c0:c1].T
        # A column that is zero from row r0 down stays so through the
        # panel (its pivot rows are zero there), so it holds no pivot.
        for jc in np.flatnonzero(P[:w].any(axis=1)).tolist():
            if row == m:
                break
            k = row - r0
            col = P[jc] % p
            nz = col[k:].nonzero()[0]
            if nz.size == 0:
                continue
            piv = k + int(nz[0])
            if piv != k:
                P[:, [k, piv]] = P[:, [piv, k]]
                col[[k, piv]] = col[[piv, k]]
                R[[row, r0 + piv], c1:] = R[[r0 + piv, row], c1:]
            # The pivot row is the k-th pivot row itself plus what earlier
            # pivots of this panel already subtracted from it.
            if e:
                P[w + k, k] = 1
            inv = pow(int(col[k]), p - 2, p)
            tail = P[jc : w + k + 1] if e else P[jc:w]
            prow = tail[:, k] % p * inv % p
            tail[:, k] = prow
            col[k] = 0
            hits = col.nonzero()[0]
            if 2 * hits.size > col.size:
                tail -= np.outer(prow, col)
            elif hits.size:
                tail[:, hits] -= np.outer(prow, col[hits])
            pivots.append(c0 + jc)
            row += 1
        k = row - r0
        # E rows past the panel's pivot count were never written.
        P = P[: w + k]
        P %= p
        R[r0:, c0:c1] = P[:w].T
        if k == 0:
            continue
        # The rows above r0 lose X times the new pivot rows, X being their
        # entries in the new pivot columns: here in the panel columns, and
        # folded into the trailing product below.
        X = None
        if r0:
            new = pivots[-k:]
            above = np.flatnonzero(R[:r0, new].any(axis=1))
            if above.size:
                X = R[np.ix_(above, new)].astype(np.float64)
                T = (X @ R[r0:row, c0:c1].astype(np.float64)).astype(np.int64)
                R[above, c0:c1] = (R[above, c0:c1] - T) % p
        if not e:
            continue
        Et = P[w : w + k]
        below = np.flatnonzero(Et.any(axis=0))
        rows = r0 + below
        A = Et[:, below].T.astype(np.float64)
        if X is not None:
            # The new pivot rows are E's pivot rows times the old ones, so
            # the rows above take -X times those as their rows of E.
            XE = (X @ -Et[:, :k].T.astype(np.float64)).astype(np.int64) % p
            rows = np.concatenate([above, rows])
            A = np.vstack([XE, A])
        cols = c1 + np.flatnonzero(R[r0:row, c1:].any(axis=0))
        U = R[r0:row, cols].astype(np.float64)
        # Pivot rows are wholly described by E, other rows keep themselves.
        R[r0:row, c1:] = 0
        block = np.ix_(rows, cols)
        T = (A @ U).astype(np.int64)
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
    is_free = np.ones(n, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = (-R[: piv.size, free].T) % field.p
    return basis


def left_kernel_basis(M, field: PrimeField) -> np.ndarray:
    """Canonical basis of the left kernel (row vectors w with w M = 0)."""
    return kernel_basis(_int_matrix(M).T, field)
