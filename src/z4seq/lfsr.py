"""Minimal LFSR synthesis over Z4 plus an independent solvability oracle.

reeds_sloane is the Reeds-Sloane algorithm (J. A. Reeds and N. J. A. Sloane,
"Shift-register synthesis (modulo m)", SIAM J. Comput. 14 (1985) 505-513)
specialised to Z4 = Z/2^2.  It is the Berlekamp-Massey recurrence carried on
two levels: level eta keeps one connection polynomial with constant term 2^eta
and a length L_eta that annihilates every digit seen so far past L_eta.  When
step k exposes a nonzero discrepancy d, the polynomial is corrected by an
earlier one, shifted by x^(k - k*), whose discrepancy at its own step k* has
2-adic valuation at most that of d, so that a multiple of it cancels d.  For
each valuation only the earlier polynomial with the smallest L - k* is kept,
from either level, and the correction is taken only if it gives a shorter
register than raising L to k + 1.  Level 1 never yields the answer; it is a
source of corrections for even discrepancies.

A Z4 vector (a connection polynomial, or the digit window of one step) is
held as two bit planes, Python ints lo and hi whose bit j is bit 0 and bit 1
of entry j, plus its length.  A discrepancy is then three popcounts
(a.s = |a0&s0| + 2(|a0&s1| + |a1&s0|) mod 4), the window of step k is the
reversed sequence's planes shifted right, a subtraction is two xors and a
borrow, and x^shift is a left shift.  Both levels' registers are held in
plain variables and both discrepancies are computed inline, so a step where
both are zero does nothing more; a correction scans the stored polynomials
in the order they were first stored and takes one only if it is strictly
shorter, so a tie keeps the earlier one.  The algorithm is still O(N^2), in
word-parallel bit operations: about 3 ms for the 1130 digits of (5,113) on
a 2-vCPU machine.

snf_min_length is the independent oracle: for each length ascending it
decides solvability of the recurrence on the *periodic* sequence by Smith
diagonalization over Z4.  The two routes share no linear algebra.  The
oracle is the only numpy code of the package, so it imports numpy itself
when called; numpy is therefore not a runtime dependency but part of the
`test` extra.
"""

from collections import namedtuple

from .errors import OracleTooLarge


class LfsrResult(namedtuple("LfsrResult", "length connection annihilates")):
    """Shortest register found: digits obey sum(c_j s_{k-j}) = 0 for k >= length.

    connection is c_0..c_L over Z4, c_0 a unit.
    """

    __slots__ = ()


def _planes(digits):
    """Bit planes (lo, hi) of Z4 digits: bit j of lo/hi is bit 0/1 of entry j."""
    lo = int("0" + "".join("01"[d & 1] for d in reversed(digits)), 2)
    hi = int("0" + "".join("01"[d >> 1] for d in reversed(digits)), 2)
    return lo, hi


def _digits(lo, hi, n):
    """The n Z4 digits held in bit planes (lo, hi)."""
    return [(lo >> j & 1) | (hi >> j & 1) << 1 for j in range(n)]


def _dot(a0, a1, s0, s1):
    """sum_j a_j s_j mod 4 for two vectors on bit planes."""
    return ((a0 & s0).bit_count()
            + 2 * ((a0 & s1).bit_count() + (a1 & s0).bit_count())) % 4


def _sub(a0, a1, b0, b1):
    """a - b entrywise mod 4 on bit planes; b0 & ~a0 is the borrow into bit 1."""
    return a0 ^ b0, a1 ^ b1 ^ (b0 & ~a0)


def _scale(t, b0, b1):
    """t * b entrywise mod 4 on bit planes, for t in 1..3."""
    if t == 2:
        return 0, b0
    return b0, (b1 ^ b0 if t == 3 else b1)


def reeds_sloane(digits) -> LfsrResult:
    """Minimal-length linear recurrence over Z4 generating the given digits.

    For one full period repeated twice the returned length is the linear
    complexity of the periodic sequence.
    """
    seq = [int(d) % 4 for d in digits]
    N = len(seq)
    s0, s1 = _planes(seq[::-1])  # bit i is s_(N-1-i)
    stored = {}  # d % 2 -> (L - k, lo, hi, length, d, k) of an earlier discrepancy d

    def corrected(L, a0, a1, n, d, k):
        """(L, lo, hi, length) of a level's register after discrepancy d at step k."""
        bestL, c0, c1, cn = k + 1, a0, a1, n  # raising L to k + 1 needs no correction
        for gap, b0, b1, bn, db, kb in stored.values():
            cand = max(L, k + gap)
            # b cancels d when its valuation is no larger; units are self-inverse
            if (db & 1 or not d & 1) and cand < bestL:
                b0, b1 = _scale(d * db & 3 if db & 1 else 1, b0, b1)
                shift = k - kb
                c0, c1 = _sub(a0, a1, b0 << shift, b1 << shift)
                bestL, cn = cand, max(n, shift + bn)
        return bestL, c0, c1, cn

    # level eta: L_eta, then the connection's planes lo, hi and its length
    L0, lo0, hi0, n0 = 0, 1, 0, 1
    L1, lo1, hi1, n1 = 0, 0, 1, 1
    for k in range(N):
        w0, w1 = s0 >> (N - 1 - k), s1 >> (N - 1 - k)  # s_k, s_(k-1), ..., s_0
        d0 = ((lo0 & w0).bit_count()
              + 2 * ((lo0 & w1).bit_count() + (hi0 & w0).bit_count())) & 3
        d1 = ((lo1 & w0).bit_count()
              + 2 * ((lo1 & w1).bit_count() + (hi1 & w0).bit_count())) & 3
        if not (d0 or d1):
            continue
        new0 = corrected(L0, lo0, hi0, n0, d0, k) if d0 else (L0, lo0, hi0, n0)
        new1 = corrected(L1, lo1, hi1, n1, d1, k) if d1 else (L1, lo1, hi1, n1)
        # both corrections read the entries stored before this step
        if d0 and (d0 & 1 not in stored or L0 - k < stored[d0 & 1][0]):
            stored[d0 & 1] = (L0 - k, lo0, hi0, n0, d0, k)
        if d1 and (d1 & 1 not in stored or L1 - k < stored[d1 & 1][0]):
            stored[d1 & 1] = (L1 - k, lo1, hi1, n1, d1, k)
        (L0, lo0, hi0, n0), (L1, lo1, hi1, n1) = new0, new1
    c0, c1 = _scale(lo0 & 1 | (hi0 & 1) << 1, lo0, hi0)  # make c_0 = 1
    ok = all(_dot(c0, c1, s0 >> (N - 1 - i), s1 >> (N - 1 - i)) == 0
             for i in range(L0, N))
    return LfsrResult(length=L0, connection=tuple(_digits(c0, c1, max(n0, L0 + 1))),
                      annihilates=ok)


# --- independent oracle -----------------------------------------------------

def solvable_z4(A, b) -> bool:
    """Decide solvability of A x = b over Z4 by Smith reduction.

    Elementary row operations are mirrored on b; column operations only
    reparametrize the unknowns.  After diagonalization the pivots are units
    or 2, and compatibility is a per-row valuation check.
    """
    import numpy as np

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
    import numpy as np

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
