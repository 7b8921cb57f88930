"""The Galois ring GR(4, 4^r): construction, packed arithmetic, roots of unity.

Elements are length-r Z4 coefficient vectors reduced modulo a monic basic
irreducible polynomial: the Graeffe lift h(y) = (-1)^r (E(y)^2 - y O(y)^2)
(mod 4), so h(x^2) = (-1)^r f(x) f(-x), of the lexicographically smallest
primitive binary f = E(x^2) + x O(x^2) of degree r.  So the residue class of
x generates the Teichmuller group G1 of order 2^r - 1.

The search for f runs on int bitmasks: a gcd sieve against x^(2^k) - x,
k = 4, 5, 6, drops f with a factor of degree <= 6, and the order of x
alone proves the rest primitive, so irreducible too: x^(2^r - 1) = 1 and
x^((2^r - 1)/d) != 1, by squaring (spreading bits, folded back by f's
taps) and shifting.  Ring values are packed Python ints, one 16-bit slot
per Z4 coefficient (`GaloisRing.pack`, read back by `GaloisRing.digits`): a
product is one int multiply, a slot mask for mod 4 and a Barrett reduction
by the modulus (two more multiplies against the precomputed
floor(x^(2r-2)/h)).  Sums of packed elements are int sums masked before a
slot can carry (`GaloisRing.sum`).  Since sigma(x) = x^2, the Frobenius map
spreads slot k to slot 2k and reduces (`GaloisRing.sigma`).  The order of x
is proved once, on f; the ring checks that its modulus lifts f and vanishes
at x^2, which suffices (`_build_ring`).  `GrElement` is the record
`root_of_unity` returns: a packed value with its ring.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import islice

from .errors import DegreeTooLarge, PeriodNotDividing, Z4SeqError
from .numtheory import R_MAX, factorize


# --- binary polynomials as bitmasks (bit i = coefficient of x^i) ---

def _bin_gcd(a: int, b: int) -> int:
    while b:
        nb = b.bit_length()
        while (na := a.bit_length()) >= nb:
            a ^= b << (na - nb)
        a, b = b, a
    return a


def _bin_xpow(e: int, f: int, r: int) -> int:
    """x^e mod f, f of degree r, left to right: square per bit, times x per set bit.

    Squaring over GF(2) spreads bit i to bit 2i; the part above x^r is folded
    back by f's taps, as x^r = sum x^j mod f over the terms x^j, j < r, of f.
    """
    taps = [j for j in range(r) if f >> j & 1]
    low = (1 << r) - 1
    a = 1
    for bit in bin(e)[2:]:
        a = int(bin(a)[2:], 4)
        while high := a >> r:
            a &= low
            for j in taps:
                a ^= high << j
        if bit == "1":
            a <<= 1
            if a >> r:
                a ^= f
    return a


def _smallest_primitive_binary(r: int) -> int:
    """Lexicographically smallest primitive binary polynomial of degree r.

    With f(0) = 1, f is primitive exactly when x has order 2^r - 1 mod f:
    x^(2^r - 1) = 1 and x^((2^r - 1)/d) != 1 for each prime d | 2^r - 1.
    Then the powers of x are 2^r - 1 distinct units, every nonzero residue,
    so GF(2)[x]/(f) is a field.  For r > 6 a gcd sieve first drops f with a
    factor of degree <= 6: each such factor divides x^(2^k) - x for one of
    k = 4, 5, 6, and no irreducible of degree r > 6 divides any of them.
    """
    order = (1 << r) - 1
    prime_divisors = list(factorize(order))
    sieve = [(1 << (1 << k)) | 2 for k in (4, 5, 6)] if r > 6 else []  # x^(2^k) - x
    for mask in range(1, 1 << r, 2):  # constant term must be 1
        f = (1 << r) | mask
        if any(_bin_gcd(f, s) != 1 for s in sieve):
            continue
        if _bin_xpow(order, f, r) == 1 and all(
                _bin_xpow(order // d, f, r) != 1 for d in prime_divisors):
            return f
    raise Z4SeqError(f"internal: no primitive binary polynomial of degree {r}")


def _graeffe_lift(f_mask: int, r: int) -> tuple:
    """Monic degree-r h over Z4 with h(x^2) = (-1)^r f(x) f(-x), an even polynomial.

    With f = E(x^2) + x O(x^2), h(y) = (-1)^r (E(y)^2 - y O(y)^2), -1 = 3 mod 4;
    E and O square as packed ints, each slot at most 6r + 12 <= 0xFFFF.
    """
    f = [f_mask >> i & 1 for i in range(r + 1)]
    even, odd = GaloisRing.pack(f[::2]), GaloisRing.pack(f[1::2])
    h = (even * even + 3 * (odd * odd << SLOT_BITS)) * (3 if r % 2 else 1)
    return tuple(c & 3 for c in h.to_bytes(2 * r + 2, "little")[::2])


class GrElement(namedtuple("GrElement", "ring value")):
    """A packed element of GR(4, 4^r) together with its ring."""

    __slots__ = ()


# A ring element packed into one int: slot k (bits 16k .. 16k+15) holds the
# Z4 coefficient of x^k.  A slot of at most 0xFFFF takes 21,845 added values
# of at most 3, or 7,281 product terms of at most 9, before it would carry.
SLOT_BITS = 16
SUM_CHUNK = 0xFFFF // 3 - 1  # addends per masked partial sum, room for the carry-in
MAX_DEGREE = 0xFFFF // 9  # a product slot sums at most r terms of at most 9


def _check_slots(r: int) -> None:
    if r > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {r} exceeds {MAX_DEGREE}, the most 16-bit slots hold")


def _slot_mask(k: int) -> int:
    """Mask of k slots holding 3: v & mask reduces each of them mod 4."""
    return int.from_bytes(b"\x03\x00" * k, "little")


class GaloisRing:
    """GR(4, 4^r) with a fixed canonical modulus; immutable after init.

    Arithmetic is on packed ints (`pack`, `digits`): a product is one int
    multiply, a slot mask for mod 4 and a Barrett reduction by the modulus.
    x is the packed residue class of x.
    """

    def __init__(self, r: int, modulus: tuple):
        self.r = r
        self.modulus = tuple(c % 4 for c in modulus)
        if len(self.modulus) != r + 1 or self.modulus[r] != 1:
            raise Z4SeqError("modulus must be monic of degree r")
        _check_slots(r)
        self.order = (1 << r) - 1  # size of the Teichmuller group G1
        self.mask = _slot_mask(r)
        self._mask2 = _slot_mask(2 * r - 1)
        # Barrett: with mu = floor(x^(2r-2) / h), the quotient of c (degree
        # at most 2r - 2) by h is floor(floor(c / x^r) * mu / x^(r-2)),
        # exactly, as h is monic
        self._mu = self.pack(_quotient((0,) * (2 * r - 2) + (1,), self.modulus))
        self._neg_h = self.pack([-c for c in self.modulus])
        self._high = SLOT_BITS * r
        self._qshift = SLOT_BITS * max(r - 2, 0)  # mu = 0 when r = 1
        self.x = -self.modulus[0] % 4 if r == 1 else 1 << SLOT_BITS

    @staticmethod
    def pack(coeffs) -> int:
        """The packed int of the Z4 coefficients c_0, c_1, ... (reduced mod 4)."""
        coeffs = bytes(int(c) % 4 for c in coeffs)
        buf = bytearray(2 * len(coeffs))
        buf[::2] = coeffs
        return int.from_bytes(buf, "little")

    def digits(self, v: int) -> tuple:
        """The Z4 coefficients c_0 .. c_(r-1) of a reduced packed int."""
        return tuple(v.to_bytes(2 * self.r, "little")[::2])

    def reduce(self, c: int) -> int:
        """c mod the modulus, for c of degree at most 2r - 2 with slots mod 4."""
        q = (((c >> self._high) * self._mu) & self._mask2) >> self._qshift
        return (c + q * self._neg_h) & self.mask

    def mul(self, a: int, b: int) -> int:
        return self.reduce((a * b) & self._mask2)

    def pow(self, a: int, e: int) -> int:
        """a^e by square-and-multiply."""
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def sigma(self, a: int) -> int:
        """Frobenius image sum a_k x^(2k): slot k moves to slot 2k, then reduce.

        It is the Frobenius automorphism because the modulus vanishes at x^2
        (checked by make_ring).
        """
        spread = bytearray(4 * self.r)
        spread[::4] = a.to_bytes(2 * self.r, "little")[::2]
        return self.reduce(int.from_bytes(spread, "little"))

    def sum(self, values) -> int:
        """Sum of reduced packed elements, masked before any slot can carry."""
        values = iter(values)
        total = 0
        while True:
            part = list(islice(values, SUM_CHUNK))
            total = (total + sum(part)) & self.mask
            if len(part) < SUM_CHUNK:
                return total

    def __repr__(self):
        return f"GaloisRing(r={self.r})"


def _quotient(num, h) -> tuple:
    """Quotient of num by the monic h over Z4, by long division."""
    num, r = list(num), len(h) - 1
    quot = [0] * max(len(num) - r, 0)
    for k in range(len(num) - 1, r - 1, -1):
        c = quot[k - r] = num[k] % 4
        for j in range(r + 1):
            num[k - r + j] -= c * h[j]
    return tuple(quot)


@lru_cache(maxsize=None)
def _build_ring(r: int) -> GaloisRing:
    """GR(4, 4^r) on the Graeffe lift h of the primitive f; x has order 2^r - 1.

    That order follows from the checks h = f (mod 2) and h(x^2) = 0 (Hensel):
    f is primitive, so x mod 2 has order 2^r - 1 in GF(2^r).  As h(x^2) = 0,
    x -> x^2 is a ring map fixing Z4, so y = x^(2^r) is a root of h with
    y = x (mod 2).  Writing y = x + 2c, 0 = h(y) = 2c h'(x), and f' is a unit
    at x mod 2 (f is separable), so 2c = 0.  So x^(2^r) = x, x is a unit,
    and its order, a multiple of that of x mod 2, is exactly 2^r - 1.
    """
    f = _smallest_primitive_binary(r)
    ring = GaloisRing(r, _graeffe_lift(f, r))
    if sum((c & 1) << i for i, c in enumerate(ring.modulus)) != f:
        raise Z4SeqError(f"internal: modulus is not a lift of {f:#b} in GR(4,4^{r})")
    # the modulus vanishes at x^2, so sigma(x) = x^2 defines ring.sigma
    x2 = ring.mul(ring.x, ring.x)
    h_x2 = 0
    for c in reversed(ring.modulus):
        h_x2 = (ring.mul(h_x2, x2) + c) & ring.mask
    if h_x2:
        raise Z4SeqError(f"internal: modulus does not vanish at x^2 in GR(4,4^{r})")
    return ring


def make_ring(r: int, r_max: int = R_MAX) -> GaloisRing:
    """Canonical GR(4, 4^r); x has order 2^r - 1 (argued in `_build_ring`)."""
    if r < 1:
        raise ValueError(f"degree must be positive, got {r}")
    if r > r_max:
        raise DegreeTooLarge(f"extension degree {r} exceeds cap {r_max}")
    _check_slots(r)  # before the primitive search factors 2^r - 1
    return _build_ring(r)


def root_of_unity(ring: GaloisRing, period: int) -> GrElement:
    """x^((2^r - 1)/period), of order exactly period as x has order 2^r - 1."""
    if period < 1 or period % 2 == 0:
        raise PeriodNotDividing(f"period must be odd and positive, got {period}")
    if ring.order % period != 0:
        raise PeriodNotDividing(f"{period} does not divide 2^{ring.r} - 1")
    return GrElement(ring, ring.pow(ring.x, ring.order // period))


def is_constant(v: int) -> bool:
    """Whether the reduced packed v lies in the prime subring Z4: slots 1.. are 0."""
    return v < 4
