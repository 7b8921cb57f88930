"""Smith-reduction oracle over Z4: the reference the span oracle is checked against.

The span oracle is `span_min_length` in `tests/span_reference.py`.  For each
length L ascending, snf_min_length builds the Toeplitz system that an
order-L recurrence on the *periodic* sequence must satisfy and decides its
solvability by Smith diagonalization over Z4 (solvable_z4).  It shares no
linear algebra with the span oracle or with Reeds-Sloane.  It is
numpy code, one system per length, so it is capped at period 128.
"""

import numpy as np


class OracleTooLarge(ValueError):
    """The SNF oracle is capped at period 128."""


def solvable_z4(A, b) -> bool:
    """Decide solvability of A x = b over Z4 by Smith reduction.

    Elementary row operations are mirrored on b; column operations only
    reparametrize the unknowns.  After diagonalization the pivots are units
    or 2, and compatibility is a per-row valuation check.
    """
    M = np.asarray(A, dtype=np.int64).copy() % 4
    v = np.asarray(b, dtype=np.int64).copy() % 4
    if M.size == 0:
        return bool(np.all(v % 4 == 0))
    nrows, ncols = M.shape
    r = 0
    while r < nrows and r < ncols:
        sub = M[r:, r:]
        picks = np.argwhere(sub % 2 == 1)
        if picks.size == 0:
            picks = np.argwhere(sub == 2)
            if picks.size == 0:
                break
        pi, pj = int(picks[0][0]) + r, int(picks[0][1]) + r
        if pi != r:
            M[[r, pi]] = M[[pi, r]]
            v[[r, pi]] = v[[pi, r]]
        if pj != r:
            M[:, [r, pj]] = M[:, [pj, r]]
        piv = int(M[r, r])
        if piv % 2:
            M[r] = M[r] * piv % 4  # units are self-inverse
            v[r] = v[r] * piv % 4
            col = M[:, r].copy()
            col[r] = 0
            if np.any(col):
                M -= np.outer(col, M[r])
                M %= 4
                v -= col * v[r]
                v %= 4
            M[r, r + 1:] = 0  # column eliminations against a cleared column
        else:
            # the working submatrix is entirely even here
            col = M[r + 1:, r] // 2
            if np.any(col):
                M[r + 1:] -= np.outer(col, M[r])
                M[r + 1:] %= 4
                v[r + 1:] -= col * v[r]
                v[r + 1:] %= 4
            M[r, r + 1:] = 0
        r += 1
    diag = M.diagonal()[:r]
    if np.any((diag == 2) & (v[:r] % 2 != 0)):
        return False
    return bool(np.all(v[r:] % 4 == 0))


def _periodic_system(s, L, period):
    """Toeplitz system for an order-L recurrence on the periodic sequence."""
    A = np.empty((period, L), dtype=np.int64)
    b = np.empty(period, dtype=np.int64)
    for t in range(period):
        i = L + t
        for j in range(1, L + 1):
            A[t, j - 1] = s[(i - j) % period]
        b[t] = -s[i % period] % 4
    return A, b


def snf_min_length(digits, period: int) -> int:
    """Smallest order of a periodic recurrence over Z4, by ascending SNF tests."""
    if period > 128:
        raise OracleTooLarge(f"oracle capped at period 128, got {period}")
    s = [int(d) % 4 for d in digits]
    if len(s) != period:
        raise ValueError(f"{len(s)} digits for period {period}")
    if all(v == 0 for v in s):
        return 0
    for L in range(1, period + 1):
        A, b = _periodic_system(s, L, period)
        if solvable_z4(A, b):
            return L
    raise AssertionError("unreachable: order = period always solves")
