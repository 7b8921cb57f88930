"""Smith-reduction oracle over Z4: the reference the span oracle is checked against.

The span oracle is `span_min_length` in `tests/span_reference.py`.  For each
length L ascending, snf_min_length builds the Toeplitz system that an
order-L recurrence on the *periodic* sequence must satisfy and decides its
solvability by Smith diagonalization over Z4 (solvable_z4).  It shares no
linear algebra with the span oracle or with Reeds-Sloane.  It works on
plain lists of ints, one system per length, so it is capped at period 128.
"""


class OracleTooLarge(ValueError):
    """The SNF oracle is capped at period 128."""


def _first(M, r, values):
    """(i, j) of the first entry of M[r:, r:] in `values`, row by row, or None."""
    for i in range(r, len(M)):
        row = M[i]
        for j in range(r, len(row)):
            if row[j] in values:
                return i, j
    return None


def solvable_z4(A, b) -> bool:
    """Decide solvability of A x = b over Z4 by Smith reduction.

    Elementary row operations are mirrored on b; column operations only
    reparametrize the unknowns.  After diagonalization the pivots are units
    or 2, and compatibility is a per-row valuation check.
    """
    M = [[x % 4 for x in row] for row in A]
    v = [x % 4 for x in b]
    nrows, ncols = len(M), len(M[0]) if M else 0
    r = 0
    while r < nrows and r < ncols:
        pick = _first(M, r, (1, 3)) or _first(M, r, (2,))
        if pick is None:
            break
        pi, pj = pick
        M[r], M[pi] = M[pi], M[r]
        v[r], v[pi] = v[pi], v[r]
        for row in M:
            row[r], row[pj] = row[pj], row[r]
        # columns left of r are zero outside their pivots, so each row
        # operation reads and writes columns r onward only; `& 3` is `% 4`
        # on ints, and the faster of the two
        pivot_row = M[r]
        piv = pivot_row[r]
        if piv % 2:
            pivot_row[r:] = [x * piv & 3 for x in pivot_row[r:]]  # units are self-inverse
            v[r] = v[r] * piv & 3
            factors = [(i, M[i][r]) for i in range(nrows) if i != r]
        else:
            # the working submatrix is entirely even here
            factors = [(i, M[i][r] // 2) for i in range(r + 1, nrows)]
        tail = pivot_row[r:]
        for i, c in factors:
            if c:
                row = M[i]
                row[r:] = [(x - c * y) & 3 for x, y in zip(row[r:], tail)]
                v[i] = (v[i] - c * v[r]) & 3
        pivot_row[r + 1:] = [0] * (ncols - r - 1)  # column eliminations against a cleared column
        r += 1
    if any(M[i][i] == 2 and v[i] % 2 for i in range(r)):
        return False
    return not any(v[r:])


def _periodic_system(s, L, period):
    """Toeplitz system for an order-L recurrence on the periodic sequence."""
    A = [[s[(L + t - j) % period] for j in range(1, L + 1)] for t in range(period)]
    b = [-s[(L + t) % period] % 4 for t in range(period)]
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
