"""Span oracle over Z4: the periodic linear complexity with no recurrence.

span_min_length is an oracle independent of Reeds-Sloane.  A recurrence of
order L on the *periodic* sequence s of period T says that s lies in the
Z4-span of its cyclic shifts by 1..L, so the oracle adds one shift per L and
stops at the first L whose span holds s.  The span is two GF(2) echelon
bases on T-bit ints, each vector stored under its top bit: level 1 holds
span vectors whose mod-2 parts are independent; level 2 spans
{u : 2u in the span}, the mod-2 parts of the level-1 vectors and the halves
of the even remainders.  s is in the span if and only if level 1 reduces it
to an even 2u with u in level 2.  Pivots are not scaled: subtracting a
level-1 vector clears the bit 0 of its odd pivot entry whatever that entry
is, and a remainder only has to stay in its coset of the span.  The
remainder of s is kept from one L to the next, so it is reduced further
only when a new pivot meets its top bit.  The oracle shares no code with
`z4seq`, its bit-plane conversion and subtraction included, has no period
cap and is O(T^2) operations on T-bit ints: about 40 ms for the 565 digits
of (5,113) on a 2-vCPU machine.  It needs the standard library alone;
`tests/snf_reference.py`, on plain lists, is the reference it is checked
against.
"""


def _to_planes(digits):
    """(lo, hi): bit j of lo and of hi is bit 0 and bit 1 of digit j."""
    lo = hi = 0
    for j, d in enumerate(digits):
        lo |= (d & 1) << j
        hi |= (d >> 1 & 1) << j
    return lo, hi


def _minus(lo, hi, v):
    """(lo, hi) - v entrywise mod 4: bit 1 of each entry takes the borrow of bit 0."""
    v0, v1 = v
    borrow = ~lo & v0
    return lo ^ v0, hi ^ v1 ^ borrow


def _reduce1(level1, lo, hi):
    """Z4 vector (lo, hi) less level-1 vectors, until lo is 0 or its top bit no pivot."""
    while lo:
        v = level1.get(lo.bit_length() - 1)
        if v is None:
            break
        lo, hi = _minus(lo, hi, v)
    return lo, hi


def _reduce2(level2, u):
    """GF(2) vector u less level-2 vectors, until it is 0 or its top bit no pivot."""
    while u:
        b = level2.get(u.bit_length() - 1)
        if b is None:
            break
        u ^= b
    return u


def span_min_length(digits) -> int:
    """Smallest L with the periodic sequence s in the Z4-span of its shifts by 1..L.

    That is the order of the shortest recurrence s_i = -sum_(j=1..L) c_j s_(i-j)
    on all i mod T, the linear complexity of s; 0 for the all-zero sequence.
    """
    s = [int(d) % 4 for d in digits]
    T = len(s)
    mask = (1 << T) - 1
    s0, s1 = _to_planes(s)
    level1 = {}  # top bit of lo -> (lo, hi) of a span vector, its pivot entry odd
    level2 = {}  # top bit -> u, a GF(2) echelon basis of {u : 2u in the span}
    r0, r1 = s0, s1  # s less span vectors: s is in the span iff this is
    for L in range(T + 1):
        if L:
            g0, g1 = _reduce1(level1, (s0 << L | s0 >> (T - L)) & mask,
                              (s1 << L | s1 >> (T - L)) & mask)
            if g0:  # a new pivot; 2g is in the span, so g mod 2 joins level 2
                level1[g0.bit_length() - 1] = (g0, g1)
                half = g0
            else:  # g = 2 * g1
                half = g1
            half = _reduce2(level2, half)
            if half:
                level2[half.bit_length() - 1] = half
        r0, r1 = _reduce1(level1, r0, r1)
        if not r0:
            r1 = _reduce2(level2, r1)
            if not r1:
                return L
    raise AssertionError("unreachable: the shift by T is s itself")
