"""Shared fixtures and independent oracles for the test suite.

The monomial oracle below recomputes quotient dimensions by pure
counting, with no linear algebra, so the matrix pipeline is checked
against something it cannot share a bug with.  The reference RREF is the
plain per-pivot loop, reducing after every update, against which the
engine's panel kernel is checked byte for byte.
"""

import re

import numpy as np
import pytest

from qci import PrimeField

# ---------------------------------------------------------------------------
# fields


@pytest.fixture(scope="session")
def field():
    return PrimeField(32003)


@pytest.fixture(scope="session")
def alt_field():
    return PrimeField(31013)


# ---------------------------------------------------------------------------
# oracle: Hilbert function of a quotient by a monomial ideal


def monomial_quotient_dim(exponent_gens, k):
    """Dimension of the degree-k part of S/I for a monomial ideal I.

    exponent_gens lists generator monomials as (i, j, l) exponent triples.
    A degree-k monomial survives in the quotient exactly when no generator
    divides it, so the dimension is a finite count over the 3-variable
    monomials of degree k.
    """
    if k < 0:
        return 0
    count = 0
    for i in range(k, -1, -1):
        for j in range(k - i, -1, -1):
            mono = (i, j, k - i - j)
            if not any(
                all(mono[t] >= g[t] for t in range(3)) for g in exponent_gens
            ):
                count += 1
    return count


@pytest.fixture(scope="session")
def monomial_oracle():
    return monomial_quotient_dim


# ---------------------------------------------------------------------------
# oracle: reduced row echelon form, one pivot at a time


def reference_rref(M, p):
    """Per-pivot elimination over the whole row.

    Returns (R, pivots) with the same fixed pivot rule as the engine: the
    first nonzero entry, scanning columns left to right and rows top to
    bottom.  Every update is reduced at once, so the entries never leave
    ``[0, p**2)``.
    """
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


@pytest.fixture(scope="session")
def rref_reference():
    return reference_rref


# ---------------------------------------------------------------------------
# acceptance summary: one PASS/FAIL line per criterion


_DESCRIPTIONS = {
    1: "pencil-of-lines curves d=3..8: tau=(d-1)^2, r=0, classified, <5s",
    2: "smooth-plus-line curves d=4..8: tau=d-1, r=d-2, tight lower bound, <30s",
    3: "complete intersection (2,3,3): t=6, r=0, bounds collapse, splits",
    4: "triangle curve: tau=3, free with exponents (1,1), triple agreement",
    5: "ideal (x, y^2, yz): t=1, c2=1, no split, resolution verified",
    6: "randomized finite-scheme triples: every certified bound holds, <60s",
    7: "randomized singular curves: bounds, screening, witnesses, <120s",
    8: "byte-identical reports, serial=parallel sweep, prime independence",
}

_results = {}


def pytest_runtest_logreport(report):
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    if report.failed:
        _results[num] = "FAIL"
    elif report.when == "call" and report.passed:
        _results.setdefault(num, "PASS")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        desc = _DESCRIPTIONS.get(num, "")
        terminalreporter.write_line(f"ACCEPTANCE {num}: {_results[num]} - {desc}")
