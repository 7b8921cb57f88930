"""Order-four generalized cyclotomic classes modulo pq (Ding-Helleseth style).

For distinct odd primes p, q with gcd(p-1, q-1) = 4, the unit group of Z_pq
splits into four classes

    D_i = {g^(4s+i) h^j : 0 <= s < e/4, 0 <= j < 4},    e = (p-1)(q-1)/4,

where g is the smallest common primitive root of p and q and h is the CRT
element with h = g (mod p), h = 1 (mod q).  Together with P (nonzero
multiples of p), Q (nonzero multiples of q) and R = {0} they partition Z_pq.

`build_system` labels a unit u by the index of u mod q: u is in D_i exactly
when ind_g(u mod q) = i (mod 4).  Since h = g (mod p) and h = 1 (mod q),
D_0 = <g^4, h> = Z_p^* x (Z_q^*)^4 and D_i = g^i D_0.

The closed-form linear complexity of the sequence is a function of the
residue case and the class of 2 alone (`lc_by_theorem`); the defining
polynomial's coefficient on each class, a*rho + b, is one table per residue
case (`class_coefficients`).
"""

import math
from collections import namedtuple
from functools import cached_property

from .errors import EqualPrimes, GcdNotFour, InternalCaseError, NotPrime
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

    @cached_property
    def two_class(self) -> int:
        """Index i of the class D_i containing 2, a unit as pq is odd."""
        return D_LABELS.index(self.class_of[2])

    def summary(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "g": self.g,
            "h": self.h,
            "e": self.e,
            "case": self.case,
            "two_class": self.two_class,
            "class_sizes": {lab: len(self.classes[lab]) for lab in LABELS},
        }


def build_system(p: int, q: int) -> CyclotomicSystem:
    """The cyclotomic system for (p, q), after checking that the pair is admissible."""
    for value in (p, q):
        if value < 3 or value % 2 == 0 or not is_prime(value):
            raise NotPrime(f"{value} is not an odd prime >= 3")
    if p == q:
        raise EqualPrimes(f"p and q must be distinct, both are {p}")
    if math.gcd(p - 1, q - 1) != 4:
        raise GcdNotFour(f"gcd({p - 1}, {q - 1}) = {math.gcd(p - 1, q - 1)}, need 4")

    # gcd(p-1, q-1) = 4 puts p, q at 1 (mod 4) and not both at 1 (mod 8)
    case = CASE1 if q % 8 == 1 else CASE2
    g = common_primitive_root(p, q)
    h = crt_pair(g, p, 1, q)
    e = (p - 1) * (q - 1) // 4

    # one period of labels by the residue mod q: Q at 0, D_(ind_g(x) mod 4) at x = g^k
    period = ["Q"] * q
    x = 1
    for k in range(q - 1):
        period[x] = D_LABELS[k % 4]
        x = x * g % q
    class_of = period * p
    class_of[p::p] = ["P"] * (q - 1)
    class_of[0] = "R"
    # each x != 0 mod q lifts to p - 1 units, so |D_i| = e; h = 1 (mod q) puts h^4 in D0
    return CyclotomicSystem(p=p, q=q, e=e, g=g, h=h, case=case,
                            class_of=tuple(class_of))


def count_solutions(system: CyclotomicSystem, a: int, m: int) -> int:
    """Number of w in D0 with g^a + w = 0 modulo m, one of p, q and pq (by enumeration)."""
    ga = pow(system.g, a, system.pq)
    return sum(1 for w in system.classes["D0"] if (ga + w) % m == 0)


def case_two_class(system: CyclotomicSystem) -> int:
    """The index of 2's class, checked against the residue case.

    Case1 needs 2 in D0 or D2, Case2 needs 2 in D1 or D3.
    """
    i = system.two_class
    if (i % 2 == 0) != (system.case == CASE1):
        raise InternalCaseError(f"{system.case} system with 2 in D{i}")
    return i


def lc_by_theorem(system: CyclotomicSystem) -> int:
    """Closed-form linear complexity selected by the class of 2."""
    p, q = system.p, system.q
    i = case_two_class(system)
    if system.case == CASE2:
        return p * q
    if i == 0:
        return q + 3 * (p - 1) * (q - 1) // 4
    return p * q - p + 1


def class_coefficients(system: CyclotomicSystem) -> dict:
    """The paper's defining-polynomial table: label -> (a, b), coefficient a*rho + b.

    2 on R and P, s on Q and rho + s - i on D_i, with s = 0 in Case1 and
    s = 2 in Case2; b is reduced into 0..3.
    """
    s = 0 if system.case == CASE1 else 2
    table = {"R": (0, 2), "P": (0, 2), "Q": (0, s)}
    table.update((label, (1, (s - i) % 4)) for i, label in enumerate(D_LABELS))
    return table
