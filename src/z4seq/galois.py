"""Arithmetic in the Galois ring GR(4, 4^r).

Elements are length-r coefficient vectors over Z4 reduced modulo a monic
basic irreducible polynomial.  The modulus is the Graeffe lift
h(x^2) = (-1)^r f(x) f(-x) (mod 4) of the lexicographically smallest
primitive binary polynomial f of degree r, so the residue class of x
generates the Teichmuller group G1 of order 2^r - 1.
"""

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegreeTooLarge,
    NotDivisor,
    PeriodNotDividing,
    RingMismatch,
    Z4SeqError,
)
from .numtheory import factorize

R_MAX = 64


# --- binary polynomials as bitmasks (bit i = coefficient of x^i) ---

def _bin_mulmod(a: int, b: int, f: int) -> int:
    deg = f.bit_length() - 1
    top = 1 << deg
    res = 0
    while a:
        if a & 1:
            res ^= b
        a >>= 1
        b <<= 1
        if b & top:
            b ^= f
    return res


def _bin_powmod(base: int, e: int, f: int) -> int:
    res = 1
    while e:
        if e & 1:
            res = _bin_mulmod(res, base, f)
        base = _bin_mulmod(base, base, f)
        e >>= 1
    return res


def _bin_gcd(a: int, b: int) -> int:
    while b:
        while a.bit_length() >= b.bit_length() and a:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _bin_is_irreducible(f: int, r: int) -> bool:
    """Rabin's irreducibility test over GF(2)."""
    x = 2
    if _bin_powmod(x, 1 << r, f) != x:
        return False
    for d in factorize(r):
        h = _bin_powmod(x, 1 << (r // d), f) ^ x
        if _bin_gcd(f, h) != 1:
            return False
    return True


def _smallest_primitive_binary(r: int) -> int:
    """Lexicographically smallest primitive binary polynomial of degree r."""
    if r == 1:
        return 0b11  # x + 1
    order = (1 << r) - 1
    prime_divisors = list(factorize(order))
    for mask in range(1, 1 << r, 2):  # constant term must be 1
        f = (1 << r) | mask
        if not _bin_is_irreducible(f, r):
            continue
        if all(_bin_powmod(2, order // d, f) != 1 for d in prime_divisors):
            return f
    raise Z4SeqError(f"internal: no primitive binary polynomial of degree {r}")


def _graeffe_lift(f_mask: int, r: int) -> tuple:
    """Monic degree-r modulus over Z4 with h(x^2) = (-1)^r f(x) f(-x)."""
    f = [(f_mask >> i) & 1 for i in range(r + 1)]
    fneg = [c if i % 2 == 0 else (-c) % 4 for i, c in enumerate(f)]
    prod = [0] * (2 * r + 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(fneg):
                prod[i + j] = (prod[i + j] + a * b) % 4
    if any(prod[k] for k in range(1, 2 * r + 1, 2)):
        raise Z4SeqError("internal: Graeffe product not even")
    sign = 1 if r % 2 == 0 else -1
    return tuple(sign * prod[2 * k] % 4 for k in range(r + 1))


class GrElement:
    """An element of GR(4, 4^r) in canonical coefficient form."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        self._check(other)
        return GrElement(self.ring,
                         tuple((a + b) % 4 for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return GrElement(self.ring,
                         tuple((a - b) % 4 for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return GrElement(self.ring, tuple(-a % 4 for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            k = other % 4
            return GrElement(self.ring, tuple(a * k % 4 for a in self.coeffs))
        self._check(other)
        r = self.ring.r
        if r == 1:
            return GrElement(self.ring, (self.coeffs[0] * other.coeffs[0] % 4,))
        prod = [0] * (2 * r - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        out = prod[:r]
        red = self.ring._red
        for k in range(r, 2 * r - 1):
            c = prod[k] % 4
            if c:
                row = red[k - r]
                for j, rj in enumerate(row):
                    if rj:
                        out[j] += c * rj
        return GrElement(self.ring, tuple(v % 4 for v in out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponents unsupported")
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, GrElement)
                and self.ring == other.ring and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"GrElement{self.coeffs}"


class GaloisRing:
    """GR(4, 4^r) with a fixed canonical modulus; immutable after init."""

    def __init__(self, r: int, modulus: tuple):
        self.r = r
        self.modulus = tuple(c % 4 for c in modulus)
        if len(self.modulus) != r + 1 or self.modulus[r] != 1:
            raise Z4SeqError("modulus must be monic of degree r")
        self.order = (1 << r) - 1  # size of the Teichmuller group G1
        self._red = self._reduction_rows()
        # rows x^0 .. x^(2r-2) reduced: the products of two basis monomials
        self._xpow = np.vstack([np.eye(r, dtype=np.uint8),
                                np.array(self._red, dtype=np.uint8).reshape(-1, r)])
        self.zero = GrElement(self, (0,) * r)
        self.one = self.scalar(1)
        if r == 1:
            self.x = self.scalar(-self.modulus[0])
        else:
            self.x = GrElement(self, (0, 1) + (0,) * (r - 2))

    def _reduction_rows(self):
        # row k holds the coefficients of x^(r+k) reduced modulo the modulus
        if self.r == 1:
            return []
        rows = []
        cur = [(-c) % 4 for c in self.modulus[: self.r]]
        rows.append(tuple(cur))
        for _ in range(self.r - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [(a + top * b) % 4 for a, b in zip(cur, rows[0])]
            rows.append(tuple(cur))
        return rows

    def scalar(self, c: int) -> GrElement:
        return GrElement(self, (c % 4,) + (0,) * (self.r - 1))

    def element(self, coeffs) -> GrElement:
        coeffs = tuple(int(c) % 4 for c in coeffs)
        if len(coeffs) > self.r:
            raise ValueError(f"at most {self.r} coefficients, got {len(coeffs)}")
        return GrElement(self, coeffs + (0,) * (self.r - len(coeffs)))

    def mul_matrix(self, coeffs) -> np.ndarray:
        """(r, r) uint8 matrix of multiplication by a: row j holds x^j * a.

        A coefficient row v times it is the row of v * a, reduced mod 4.
        """
        windows = sliding_window_view(self._xpow, self.r, axis=0)  # [j, s, k] = x^(j+k)_s
        return windows @ np.asarray(coeffs, dtype=np.uint8) % 4

    def __eq__(self, other):
        return (isinstance(other, GaloisRing)
                and self.r == other.r and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.r, self.modulus))

    def __repr__(self):
        return f"GaloisRing(r={self.r})"


@lru_cache(maxsize=None)
def _build_ring(r: int) -> GaloisRing:
    f = _smallest_primitive_binary(r)
    ring = GaloisRing(r, _graeffe_lift(f, r))
    x = ring.x
    if x ** ring.order != ring.one:
        raise Z4SeqError(f"internal: x^({ring.order}) != 1 in GR(4,4^{r})")
    for d in factorize(ring.order):
        if x ** (ring.order // d) == ring.one:
            raise Z4SeqError(f"internal: x has order below {ring.order} in GR(4,4^{r})")
    return ring


def make_ring(r: int, r_max: int = R_MAX) -> GaloisRing:
    """Canonical GR(4, 4^r); x is verified to have order 2^r - 1."""
    if r < 1:
        raise ValueError(f"degree must be positive, got {r}")
    if r > r_max:
        raise DegreeTooLarge(f"extension degree {r} exceeds cap {r_max}")
    return _build_ring(r)


def teichmuller_decompose(a: GrElement):
    """(a1, a2) in T x T with a = a1 + 2*a2; T = {0} union G1.

    a1 = a^(2^r) since squaring annihilates the 2-part; a2 is the Teichmuller
    projection of the unique halved preimage with coefficients in {0, 1}.
    """
    r = a.ring.r
    a1 = a
    for _ in range(r):
        a1 = a1 * a1
    d = a - a1
    if any(c % 2 for c in d.coeffs):
        raise Z4SeqError("internal: a - a^(2^r) has an odd coefficient")
    a2 = GrElement(a.ring, tuple(c // 2 for c in d.coeffs))
    for _ in range(r):
        a2 = a2 * a2
    return a1, a2


def frobenius(a: GrElement, s: int) -> GrElement:
    """Frobenius power map a1 + 2*a2 -> a1^(2^s) + 2*a2^(2^s); needs s | r."""
    r = a.ring.r
    if s < 1 or r % s != 0:
        raise NotDivisor(f"{s} does not divide extension degree {r}")
    a1, a2 = teichmuller_decompose(a)
    for _ in range(s):
        a1 = a1 * a1
        a2 = a2 * a2
    return a1 + a2 * 2


def trace(a: GrElement, s: int) -> GrElement:
    """Sum of all Frobenius conjugates of a over GR(4, 4^s); needs s | r."""
    r = a.ring.r
    if s < 1 or r % s != 0:
        raise NotDivisor(f"{s} does not divide extension degree {r}")
    a1, a2 = teichmuller_decompose(a)
    acc = a.ring.zero
    for _ in range(r // s):
        acc = acc + a1 + a2 * 2
        for _ in range(s):
            a1 = a1 * a1
            a2 = a2 * a2
    return acc


def root_of_unity(ring: GaloisRing, period: int) -> GrElement:
    """Canonical primitive period-th root of unity x^((2^r - 1)/period)."""
    if period < 1 or period % 2 == 0:
        raise PeriodNotDividing(f"period must be odd and positive, got {period}")
    if ring.order % period != 0:
        raise PeriodNotDividing(f"{period} does not divide 2^{ring.r} - 1")
    beta = ring.x ** (ring.order // period)
    if beta ** period != ring.one:
        raise Z4SeqError("internal: beta^period != 1")
    for d in factorize(period):
        if beta ** (period // d) == ring.one:
            raise Z4SeqError("internal: beta is not primitive")
    return beta


def is_constant(a: GrElement):
    """The Z4 value of a if it lies in the prime subring, else None."""
    if any(a.coeffs[1:]):
        return None
    return a.coeffs[0]
