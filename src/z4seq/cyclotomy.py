"""Order-four generalized cyclotomic classes modulo pq (Ding-Helleseth style).

For distinct odd primes p, q with gcd(p-1, q-1) = 4, the unit group of Z_pq
splits into four classes

    D_i = {g^(4s+i) h^j : 0 <= s < e/4, 0 <= j < 4},    e = (p-1)(q-1)/4,

where g is the smallest common primitive root of p and q and h is the CRT
element with h = g (mod p), h = 1 (mod q).  Together with P (nonzero
multiples of p), Q (nonzero multiples of q) and R = {0} they partition Z_pq.
The closed-form linear complexity of the sequence is a function of the
residue case and the class of 2 alone (`lc_by_theorem`); the defining
polynomial's coefficient on each class, a*rho + b, is one table per residue
case (`class_coefficients`).
"""

import math
from collections import namedtuple
from functools import cached_property

from .errors import EqualPrimes, GcdNotFour, InternalCaseError, NotPrime, Z4SeqError
from .numtheory import common_primitive_root, crt_pair, is_prime

CASE1 = "Case1"  # q = 1 (mod 8) and p = 5 (mod 8)
CASE2 = "Case2"  # q = 5 (mod 8) and p = 1 (mod 4)

D_LABELS = ("D0", "D1", "D2", "D3")
LABELS = D_LABELS + ("P", "Q", "R")


class CyclotomicSystem(namedtuple("CyclotomicSystem", "p q e g h case class_of")):
    """Immutable residue-class partition of Z_pq plus its generators.

    class_of[u] is the label of residue u.  The fields are read-only; the
    instance dict holds only the cached `classes` and `two_class`.
    """

    @property
    def pq(self) -> int:
        return self.p * self.q

    @cached_property
    def classes(self) -> dict:
        """Label -> sorted tuple of members."""
        out: dict[str, list[int]] = {lab: [] for lab in LABELS}
        for u, lab in enumerate(self.class_of):
            out[lab].append(u)
        return {lab: tuple(members) for lab, members in out.items()}

    def members(self, label: str) -> tuple:
        return self.classes[label]

    @cached_property
    def two_class(self) -> int:
        """Index i of the class D_i containing 2."""
        lab = self.class_of[2 % self.pq]
        if lab not in D_LABELS:
            raise InternalCaseError(f"2 classified as {lab}")
        return int(lab[1])

    def summary(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "g": self.g,
            "h": self.h,
            "e": self.e,
            "case": self.case,
            "two_class": self.two_class,
            "class_sizes": {lab: len(self.members(lab)) for lab in LABELS},
        }


def build_system(p: int, q: int) -> CyclotomicSystem:
    """Construct and fully verify the cyclotomic system for (p, q)."""
    for value in (p, q):
        if value < 3 or value % 2 == 0 or not is_prime(value):
            raise NotPrime(f"{value} is not an odd prime >= 3")
    if p == q:
        raise EqualPrimes(f"p and q must be distinct, both are {p}")
    if math.gcd(p - 1, q - 1) != 4:
        raise GcdNotFour(f"gcd({p - 1}, {q - 1}) = {math.gcd(p - 1, q - 1)}, need 4")

    n = p * q
    if n % 4 != 1:
        raise Z4SeqError(f"internal: pq = {n} not 1 mod 4")  # unreachable given gcd=4

    if q % 8 == 1 and p % 8 == 5:
        case = CASE1
    elif q % 8 == 5 and p % 4 == 1:
        case = CASE2
    else:
        raise Z4SeqError(f"internal: ({p}, {q}) fits neither admissible case")

    g = common_primitive_root(p, q)
    h = crt_pair(g, p, 1, q)
    e = (p - 1) * (q - 1) // 4

    class_of: list = [None] * n
    class_of[0] = "R"
    for k in range(1, q):
        class_of[k * p] = "P"
    for k in range(1, p):
        class_of[k * q] = "Q"

    g4 = pow(g, 4, n)
    hpow = [pow(h, j, n) for j in range(4)]
    for i in range(4):
        label = D_LABELS[i]
        x = pow(g, i, n)
        for _ in range(e // 4):
            for hj in hpow:
                v = x * hj % n
                if class_of[v] is not None:
                    raise Z4SeqError(
                        f"internal: residue {v} hit twice ({class_of[v]} vs {label})"
                    )
                class_of[v] = label
            x = x * g4 % n

    if any(lab is None for lab in class_of):
        raise Z4SeqError("internal: classes do not cover Z_pq")
    for i in range(4):
        size = sum(1 for lab in class_of if lab == D_LABELS[i])
        if size != e:
            raise Z4SeqError(f"internal: |D{i}| = {size}, expected {e}")
    if class_of[pow(h, 4, n)] != "D0":
        raise Z4SeqError("internal: h^4 not in D0")

    return CyclotomicSystem(p=p, q=q, e=e, g=g, h=h, case=case,
                            class_of=tuple(class_of))


def count_solutions(system: CyclotomicSystem, a: int, modulus: str) -> int:
    """Number of w in D0 with g^a + w = 0 modulo p, q, or pq (by enumeration).

    `modulus` is one of "p", "q", "pq".
    """
    try:
        m = {"p": system.p, "q": system.q, "pq": system.pq}[modulus]
    except KeyError:
        raise ValueError(f"modulus must be 'p', 'q' or 'pq', got {modulus!r}") from None
    ga = pow(system.g, a, system.pq)
    return sum(1 for w in system.members("D0") if (ga + w) % m == 0)


def lc_by_theorem(system: CyclotomicSystem) -> int:
    """Closed-form linear complexity selected by the class of 2."""
    p, q = system.p, system.q
    i = system.two_class
    if system.case == CASE1:
        if i == 0:
            return q + 3 * (p - 1) * (q - 1) // 4
        if i == 2:
            return p * q - p + 1
        raise InternalCaseError(f"Case1 system with 2 in D{i}")
    if i not in (1, 3):
        raise InternalCaseError(f"Case2 system with 2 in D{i}")
    return p * q


def class_coefficients(system: CyclotomicSystem) -> dict:
    """The paper's defining-polynomial table: label -> (a, b), coefficient a*rho + b.

    2 on R and P, s on Q and rho + s - i on D_i, with s = 0 in Case1 and
    s = 2 in Case2; b is reduced into 0..3.
    """
    s = 0 if system.case == CASE1 else 2
    table = {"R": (0, 2), "P": (0, 2), "Q": (0, s)}
    table.update((label, (1, (s - i) % 4)) for i, label in enumerate(D_LABELS))
    return table
