"""Scalar GR(4, 4^r) arithmetic: the reference the library's packed ints are checked against.

The library multiplies packed ints and reduces them by Barrett reduction
(`GaloisRing.mul`, `GaloisRing.reduce`), and applies the Frobenius map by
spreading slots (`GaloisRing.sigma`).  This module does the same arithmetic
one coefficient at a time on `GrElement` values: a product is a schoolbook
convolution reduced by long division by `ring.modulus` itself, so it shares
no code with the library's reduction.  On it rest the preliminaries of the
Galois ring (Wan 2003): the Teichmuller decomposition a = a1 + 2*a2, the
Frobenius power maps and the trace over GR(4, 4^s).
"""

from z4seq.galois import GrElement


class NotDivisor(ValueError):
    """Frobenius/trace subparameter s must divide the extension degree."""


def mul(a: GrElement, b) -> GrElement:
    """a * b for a ring element or an integer b."""
    ring = a.ring
    if isinstance(b, int):
        b = ring.scalar(b)
    a._check(b)
    r = ring.r
    prod = [0] * (2 * r - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    return remainder(ring, prod)


def remainder(ring, poly) -> GrElement:
    """The element of the Z4 polynomial c_0, c_1, ... (any degree) mod ring.modulus."""
    r = ring.r
    poly = list(poly) + [0] * max(r - len(poly), 0)
    # long division by the monic modulus h, top coefficient first:
    # c x^k = c x^(k-r) (x^r - h) + (lower terms of c x^(k-r) h)
    h = ring.modulus
    for k in range(len(poly) - 1, r - 1, -1):
        c = poly[k] % 4
        for j in range(r + 1):
            poly[k - r + j] -= c * h[j]
    return GrElement(ring, tuple(v % 4 for v in poly[:r]))


def power(a: GrElement, e: int) -> GrElement:
    """a^e by square-and-multiply."""
    if e < 0:
        raise ValueError("negative exponents unsupported")
    result = a.ring.one
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def teichmuller_decompose(a: GrElement):
    """(a1, a2) in T x T with a = a1 + 2*a2; T = {0} union G1.

    a1 = a^(2^r) since squaring annihilates the 2-part; a2 is the Teichmuller
    projection of the unique halved preimage with coefficients in {0, 1}.
    """
    r = a.ring.r
    a1 = a
    for _ in range(r):
        a1 = mul(a1, a1)
    d = a - a1
    if any(c % 2 for c in d.coeffs):
        raise AssertionError("a - a^(2^r) has an odd coefficient")
    a2 = GrElement(a.ring, tuple(c // 2 for c in d.coeffs))
    for _ in range(r):
        a2 = mul(a2, a2)
    return a1, a2


def _check_divisor(a: GrElement, s: int):
    r = a.ring.r
    if s < 1 or r % s != 0:
        raise NotDivisor(f"{s} does not divide extension degree {r}")


def frobenius(a: GrElement, s: int) -> GrElement:
    """Frobenius power map a1 + 2*a2 -> a1^(2^s) + 2*a2^(2^s); needs s | r."""
    _check_divisor(a, s)
    a1, a2 = teichmuller_decompose(a)
    for _ in range(s):
        a1 = mul(a1, a1)
        a2 = mul(a2, a2)
    return a1 + mul(a2, 2)


def trace(a: GrElement, s: int) -> GrElement:
    """Sum of all Frobenius conjugates of a over GR(4, 4^s); needs s | r."""
    _check_divisor(a, s)
    a1, a2 = teichmuller_decompose(a)
    acc = a.ring.zero
    for _ in range(a.ring.r // s):
        acc = acc + a1 + mul(a2, 2)
        for _ in range(s):
            a1 = mul(a1, a1)
            a2 = mul(a2, a2)
    return acc
