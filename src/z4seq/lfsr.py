"""Minimal LFSR synthesis over Z4.

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
source of corrections for even discrepancies.  A stored polynomial, of
length L* at its step k* < k, is shifted by k - k* >= 1, so c_0 = 1 stays,
and the result has degree at most max(L, k - k* + L*), the new L.

A Z4 vector (a connection polynomial, or the digit window of one step) is
held as two bit planes, Python ints lo and hi whose bit j is bit 0 and bit 1
of entry j.  A discrepancy is then `_dot`, three popcounts (a.s = |a0&s0| +
2(|a0&s1| + |a1&s0|) mod 4), the window of step k is the reversed sequence's
planes shifted right, a subtraction is two xors and a borrow, and x^shift is
a left shift.  Both levels' registers are held in plain variables, so a step
where both discrepancies are zero does nothing more; a correction scans the
stored polynomials in the order they were first stored and takes one only if
it is strictly shorter, so a tie keeps the earlier one.  The algorithm is
still O(N^2), in word-parallel bit operations: about 3 ms for the 1130
digits of (5,113) on a 2-vCPU machine.
"""

from collections import namedtuple


class LfsrResult(namedtuple("LfsrResult", "length connection annihilates")):
    """Shortest register found: digits obey sum(c_j s_{k-j}) = 0 for k >= length.

    connection is c_0..c_L over Z4: length + 1 entries, c_0 = 1 (module docstring).
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
    stored = {}  # d % 2 -> (L - k, lo, hi, d, k) of an earlier discrepancy d

    def corrected(L, a0, a1, d, k):
        """(L, lo, hi) of a level's register after discrepancy d at step k."""
        bestL, c0, c1 = k + 1, a0, a1  # raising L to k + 1 needs no correction
        for gap, b0, b1, db, kb in stored.values():
            cand = max(L, k + gap)
            # b cancels d when its valuation is no larger; units are self-inverse
            if (db & 1 or not d & 1) and cand < bestL:
                b0, b1 = _scale(d * db & 3 if db & 1 else 1, b0, b1)
                shift = k - kb
                c0, c1 = _sub(a0, a1, b0 << shift, b1 << shift)
                bestL = cand
        return bestL, c0, c1

    # level eta: L_eta, then the connection's planes lo, hi
    L0, lo0, hi0 = 0, 1, 0
    L1, lo1, hi1 = 0, 0, 1
    for k in range(N):
        w0, w1 = s0 >> (N - 1 - k), s1 >> (N - 1 - k)  # s_k, s_(k-1), ..., s_0
        d0, d1 = _dot(lo0, hi0, w0, w1), _dot(lo1, hi1, w0, w1)
        if not (d0 or d1):
            continue
        new0 = corrected(L0, lo0, hi0, d0, k) if d0 else (L0, lo0, hi0)
        new1 = corrected(L1, lo1, hi1, d1, k) if d1 else (L1, lo1, hi1)
        # both corrections read the entries stored before this step
        if d0 and (d0 & 1 not in stored or L0 - k < stored[d0 & 1][0]):
            stored[d0 & 1] = (L0 - k, lo0, hi0, d0, k)
        if d1 and (d1 & 1 not in stored or L1 - k < stored[d1 & 1][0]):
            stored[d1 & 1] = (L1 - k, lo1, hi1, d1, k)
        (L0, lo0, hi0), (L1, lo1, hi1) = new0, new1
    ok = all(_dot(lo0, hi0, s0 >> (N - 1 - i), s1 >> (N - 1 - i)) == 0
             for i in range(L0, N))
    return LfsrResult(length=L0, connection=tuple(_digits(lo0, hi0, L0 + 1)),
                      annihilates=ok)
