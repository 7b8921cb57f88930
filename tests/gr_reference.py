"""Scalar GR(4, 4^r) arithmetic: the reference the library's packed ints are checked against.

The library keeps every ring value as a packed int: it multiplies them and
reduces by Barrett reduction (`GaloisRing.mul`, `GaloisRing.reduce`), and
applies the Frobenius map by spreading slots (`GaloisRing.sigma`).  This
module does the same arithmetic one coefficient at a time on `Element`, a
tuple of r Z4 coefficients built from `ring.r` and `ring.modulus` alone: a
sum is coefficient-wise, and a product is a schoolbook convolution reduced
by long division by the modulus itself, so it shares no code with the
library's reduction.  `unpack` reads a packed int slot by slot with shifts,
apart from `GaloisRing.digits`.  On it rest the preliminaries of the Galois
ring (Wan 2003): the Teichmuller decomposition a = a1 + 2*a2, the Frobenius
power maps and the trace over GR(4, 4^s).  `graeffe_lift` builds the
library's modulus from the full product f(x) f(-x), term by term.
"""

from z4seq.galois import SLOT_BITS, GrElement


class NotDivisor(ValueError):
    """Frobenius/trace subparameter s must divide the extension degree."""


class Element:
    """An element of GR(4, 4^r) as its r Z4 coefficients; sums, negation and equality."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def _same_ring(self, other):
        assert (self.ring.r, self.ring.modulus) == (other.ring.r, other.ring.modulus)
        return other

    def __add__(self, other):
        other = self._same_ring(other)
        return Element(self.ring,
                       tuple((a + b) % 4 for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Element(self.ring, tuple(-a % 4 for a in self.coeffs))

    def __eq__(self, other):
        return (isinstance(other, Element) and self.coeffs == other.coeffs
                and (self.ring.r, self.ring.modulus) == (other.ring.r, other.ring.modulus))

    def __repr__(self):
        return f"Element{self.coeffs}"


def element(ring, coeffs) -> Element:
    """The element with coefficients c_0, c_1, ... (at most r of them, reduced mod 4)."""
    coeffs = tuple(int(c) % 4 for c in coeffs)
    if len(coeffs) > ring.r:
        raise ValueError(f"at most {ring.r} coefficients, got {len(coeffs)}")
    return Element(ring, coeffs + (0,) * (ring.r - len(coeffs)))


def scalar(ring, c: int) -> Element:
    return element(ring, (c,))


def zero(ring) -> Element:
    return scalar(ring, 0)


def one(ring) -> Element:
    return scalar(ring, 1)


def generator(ring) -> Element:
    """The residue class of x, by long division of x by the modulus."""
    return remainder(ring, (0, 1))


def unpack(ring, v: int) -> Element:
    """The element of a packed int, read slot by slot; each slot must hold a Z4 value."""
    slots = [(v >> SLOT_BITS * k) & 0xFFFF for k in range(ring.r)]
    if v >> SLOT_BITS * ring.r or any(c > 3 for c in slots):
        raise ValueError(f"{v:#x} is not a reduced packed element of degree {ring.r}")
    return Element(ring, tuple(slots))


def mul(a: Element, b) -> Element:
    """a * b for a ring element or an integer b."""
    ring = a.ring
    if isinstance(b, int):
        b = scalar(ring, b)
    a._same_ring(b)
    r = ring.r
    prod = [0] * (2 * r - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    return remainder(ring, prod)


def remainder(ring, poly) -> Element:
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
    return Element(ring, tuple(v % 4 for v in poly[:r]))


def power(a: Element, e: int) -> Element:
    """a^e by square-and-multiply."""
    if e < 0:
        raise ValueError("negative exponents unsupported")
    result = one(a.ring)
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def graeffe_lift(f_mask: int, r: int) -> tuple:
    """Monic degree-r h with h(x^2) = (-1)^r f(x) f(-x) (mod 4), by the list product."""
    f = [(f_mask >> i) & 1 for i in range(r + 1)]
    fneg = [c if i % 2 == 0 else (-c) % 4 for i, c in enumerate(f)]
    prod = [0] * (2 * r + 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(fneg):
                prod[i + j] = (prod[i + j] + a * b) % 4
    sign = 1 if r % 2 == 0 else -1
    return tuple(sign * prod[2 * k] % 4 for k in range(r + 1))


def root_power(beta: GrElement, m: int) -> GrElement:
    """beta^m by `power` on beta's coefficients, as the record `root_of_unity` returns."""
    ring = beta.ring
    return GrElement(ring, ring.pack(power(unpack(ring, beta.value), m).coeffs))


def teichmuller_decompose(a: Element):
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
    a2 = Element(a.ring, tuple(c // 2 for c in d.coeffs))
    for _ in range(r):
        a2 = mul(a2, a2)
    return a1, a2


def _check_divisor(a: Element, s: int):
    r = a.ring.r
    if s < 1 or r % s != 0:
        raise NotDivisor(f"{s} does not divide extension degree {r}")


def frobenius(a: Element, s: int) -> Element:
    """Frobenius power map a1 + 2*a2 -> a1^(2^s) + 2*a2^(2^s); needs s | r."""
    _check_divisor(a, s)
    a1, a2 = teichmuller_decompose(a)
    for _ in range(s):
        a1 = mul(a1, a1)
        a2 = mul(a2, a2)
    return a1 + mul(a2, 2)


def trace(a: Element, s: int) -> Element:
    """Sum of all Frobenius conjugates of a over GR(4, 4^s); needs s | r."""
    _check_divisor(a, s)
    a1, a2 = teichmuller_decompose(a)
    acc = zero(a.ring)
    for _ in range(a.ring.r // s):
        acc = acc + a1 + mul(a2, 2)
        for _ in range(s):
            a1 = mul(a1, a1)
            a2 = mul(a2, a2)
    return acc
