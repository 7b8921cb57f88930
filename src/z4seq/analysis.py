"""Defining polynomials over GR(4, 4^r) and linear complexity by three routes.

The defining polynomial of a period-T sequence is its Galois-ring DFT
rho_i = sum_u s_u beta^(-iu) against a primitive T-th root of unity beta;
for the cyclotomic quaternary sequences the coefficients also follow a
closed form per residue case, and the linear complexity equals the number
of nonzero coefficients.  An LFSR-synthesis oracle cross-checks everything.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cyclotomy import CASE1, CyclotomicSystem, build_system
from .errors import (
    InternalCaseError,
    PeriodMismatch,
    PeriodNotCongruent1Mod4,
)
from .galois import (
    GaloisRing,
    GrElement,
    R_MAX,
    is_constant,
    make_ring,
    root_of_unity,
)
from .lfsr import reeds_sloane
from .numtheory import factorize, is_prime, mult_order
from .sequence import QuaternarySequence, generate


def power_table(gamma: GrElement, n: int) -> list:
    """[gamma^0, ..., gamma^(n-1)]."""
    pows = [gamma.ring.one]
    for _ in range(n - 1):
        pows.append(pows[-1] * gamma)
    return pows


def _checked_powers(ring: GaloisRing, beta: GrElement, period: int) -> list:
    """Power table of beta after verifying ord(beta) = period."""
    pows = power_table(beta, period)
    if pows[-1] * beta != ring.one:
        raise PeriodMismatch(f"beta^{period} != 1")
    for d in factorize(period):
        if period // d > 0 and pows[period // d] == ring.one:
            raise PeriodMismatch(f"ord(beta) divides {period // d} < {period}")
    return pows


@dataclass(frozen=True)
class DefiningPolynomial:
    """DFT coefficient vector rho_0..rho_{T-1} with its root of unity."""

    ring: GaloisRing
    beta: GrElement
    coeffs: tuple

    @property
    def period(self) -> int:
        return len(self.coeffs)

    def nonzero_count(self) -> int:
        return sum(1 for c in self.coeffs if c)

    def evaluate(self, u: int, powers=None) -> GrElement:
        """G(beta^u) = sum_i rho_i beta^(iu)."""
        T = self.period
        pows = powers if powers is not None else power_table(self.beta, T)
        acc = self.ring.zero
        for i, c in enumerate(self.coeffs):
            if c:
                acc = acc + c * pows[i * u % T]
        return acc


def dft(seq: QuaternarySequence, ring: GaloisRing, beta: GrElement) -> DefiningPolynomial:
    """Galois-ring DFT of one period; exact inversion needs T = 1 (mod 4)."""
    T = seq.period
    if T % 4 != 1:
        raise PeriodNotCongruent1Mod4(f"period {T} = {T % 4} (mod 4)")
    pows = _checked_powers(ring, beta, T)
    table = np.array([el.coeffs for el in pows], dtype=np.int64)
    s = np.array(seq.digits, dtype=np.int64)
    u = np.arange(T)
    coeffs = []
    for i in range(T):
        idx = (-i * u) % T
        vec = (s @ table[idx]) % 4
        coeffs.append(GrElement(ring, tuple(int(x) for x in vec)))
    return DefiningPolynomial(ring=ring, beta=beta, coeffs=tuple(coeffs))


def class_sum(system: CyclotomicSystem, i: int, gamma: GrElement, powers=None) -> GrElement:
    """D_i evaluated at gamma: sum of gamma^u over u in D_i."""
    pows = powers if powers is not None else power_table(gamma, system.pq)
    acc = gamma.ring.zero
    for u in system.members(f"D{i % 4}"):
        acc = acc + pows[u]
    return acc


def rho_value(system: CyclotomicSystem, beta: GrElement, powers=None) -> GrElement:
    """rho = sum_{i=1..3} i * D_i(beta)."""
    pows = powers if powers is not None else power_table(beta, system.pq)
    acc = beta.ring.zero
    for i in (1, 2, 3):
        acc = acc + class_sum(system, i, beta, pows) * i
    return acc


def defining_poly_formula(system: CyclotomicSystem, ring: GaloisRing,
                          beta: GrElement) -> DefiningPolynomial:
    """Closed-form defining polynomial per residue case.

    Case1: coefficient 2 on exponents jp (0 <= j < q), rho - i on D_i, 0 on Q.
    Case2: coefficient 2 on jq (0 <= j < p) and jp (1 <= j < q), rho + 2 - i on D_i.
    """
    T = system.pq
    if T % 4 != 1:
        raise PeriodNotCongruent1Mod4(f"period {T} = {T % 4} (mod 4)")
    pows = _checked_powers(ring, beta, T)
    rho = rho_value(system, beta, pows)
    two = ring.scalar(2)
    coeffs = [ring.zero] * T
    if system.case == CASE1:
        for j in range(system.q):
            coeffs[j * system.p % T] = two
        for i in range(4):
            ci = rho - ring.scalar(i)
            for u in system.members(f"D{i}"):
                coeffs[u] = ci
    else:
        for j in range(system.p):
            coeffs[j * system.q % T] = two
        for j in range(1, system.q):
            coeffs[j * system.p] = two
        for i in range(4):
            ci = rho + ring.scalar(2 - i)
            for u in system.members(f"D{i}"):
                coeffs[u] = ci
    return DefiningPolynomial(ring=ring, beta=beta, coeffs=tuple(coeffs))


def inner_product_check(system: CyclotomicSystem, ring: GaloisRing, beta: GrElement,
                        i: int, j: int, powers=None) -> GrElement:
    """C_i(beta) . C_j(beta)^T + (q-1)/4, the scalar reduced mod 4."""
    pows = powers if powers is not None else power_table(beta, system.pq)
    sums = [class_sum(system, k, beta, pows) for k in range(4)]
    acc = ring.zero
    for k in range(4):
        acc = acc + sums[(i + k) % 4] * sums[(j + k) % 4]
    return acc + ring.scalar((system.q - 1) // 4)


def lc_by_count(defpoly: DefiningPolynomial) -> int:
    """Linear complexity as the number of nonzero DFT coefficients."""
    return defpoly.nonzero_count()


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


@dataclass(frozen=True)
class AnalysisReport:
    """Cross-checked linear-complexity results for one (p, q)."""

    p: int
    q: int
    case: str
    two_class: int
    rho: GrElement
    rho_in_z4: bool
    lc_formula: int
    lc_dft: int
    lc_reeds_sloane: int
    agree: bool
    ring_degree: int

    CSV_HEADER = "p,q,case,two_class,lc_formula,lc_dft,lc_rs,agree"

    def csv_row(self) -> str:
        return (f"{self.p},{self.q},{self.case},{self.two_class},"
                f"{self.lc_formula},{self.lc_dft},{self.lc_reeds_sloane},"
                f"{str(self.agree).lower()}")

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "case": self.case,
            "two_class": self.two_class,
            "rho": list(self.rho.coeffs),
            "rho_in_z4": self.rho_in_z4,
            "lc_formula": self.lc_formula,
            "lc_dft": self.lc_dft,
            "lc_reeds_sloane": self.lc_reeds_sloane,
            "agree": self.agree,
            "ring_degree": self.ring_degree,
        }


def analyze(system: CyclotomicSystem, r_max: int = R_MAX) -> AnalysisReport:
    """Full pipeline: formula vs DFT count vs Reeds-Sloane on two periods."""
    ell = mult_order(2, system.pq)
    ring = make_ring(ell, r_max)
    beta = root_of_unity(ring, system.pq)
    seq = generate(system)
    pows = power_table(beta, system.pq)
    defpoly = dft(seq, ring, beta)
    rho = rho_value(system, beta, pows)
    lc_formula = lc_by_theorem(system)
    lc_dft = lc_by_count(defpoly)
    synth = reeds_sloane(seq.digits * 2)
    agree = lc_formula == lc_dft == synth.length
    return AnalysisReport(
        p=system.p, q=system.q, case=system.case, two_class=system.two_class,
        rho=rho, rho_in_z4=is_constant(rho) is not None, lc_formula=lc_formula,
        lc_dft=lc_dft, lc_reeds_sloane=synth.length, agree=agree, ring_degree=ell,
    )


def admissible_pairs(p_max: int, q_max: int, r_max: int = R_MAX,
                     pq_max: int | None = None) -> list:
    """Ordered pairs (p, q), p != q, gcd(p-1, q-1) = 4, ord_2(pq) <= r_max."""
    ps = [v for v in range(5, p_max + 1) if is_prime(v)]
    qs = [v for v in range(5, q_max + 1) if is_prime(v)]
    out = []
    for p in ps:
        for q in qs:
            if p == q or math.gcd(p - 1, q - 1) != 4:
                continue
            if pq_max is not None and p * q > pq_max:
                continue
            if mult_order(2, p * q) > r_max:
                continue
            out.append((p, q))
    return sorted(out)


def verify_identities(system: CyclotomicSystem, ring: GaloisRing,
                      beta: GrElement, rng_seed: int = 1) -> dict:
    """Named structural identities of the system, each True/False.

    Covers the partition, the multiplicative class shift, root-of-unity sums,
    class sums at the prime-order points, the solution-count closed forms,
    the inner-product pattern, and the rho membership criterion.
    """
    import random

    p, q, n = system.p, system.q, system.pq
    pows = _checked_powers(ring, beta, n)
    checks = {}

    sizes = {lab: len(system.members(lab)) for lab in ("D0", "D1", "D2", "D3", "P", "Q", "R")}
    checks["partition"] = (
        all(sizes[f"D{i}"] == system.e for i in range(4))
        and sizes["P"] == q - 1 and sizes["Q"] == p - 1 and sizes["R"] == 1
        and sum(sizes.values()) == n
        and system.class_of[pow(system.h, 4, n)] == "D0"
    )

    rng = random.Random(rng_seed)
    ok = True
    d_sets = [frozenset(system.members(f"D{i}")) for i in range(4)]
    for _ in range(8):
        j = rng.randrange(4)
        i = rng.randrange(4)
        u = rng.choice(system.members(f"D{j}"))
        ok = ok and frozenset(u * v % n for v in d_sets[i]) == d_sets[(i + j) % 4]
    checks["class-shift"] = ok

    zero, one = ring.zero, ring.one
    sum_p = sum((pows[j * p % n] for j in range(q)), zero)
    sum_q = sum((pows[j * q % n] for j in range(p)), zero)
    unit_sum = sum((class_sum(system, i, beta, pows) for i in range(4)), zero)
    checks["root-of-unity-sums"] = sum_p == zero and sum_q == zero and unit_sum == one

    ok = True
    target = ring.scalar(3 * (q - 1) // 4)
    for i in range(4):
        members = system.members(f"D{i}")
        # D_i at beta^m is the sum of beta^(m*u) over u in D_i
        for k in range(q):
            ok = ok and sum((pows[k * p * u % n] for u in members), zero) == zero
        for k in range(1, p):
            ok = ok and sum((pows[k * q * u % n] for u in members), zero) == target
    checks["class-sums"] = ok

    from .cyclotomy import count_solutions

    ok = True
    for a in range(4):
        hits = (a + (q - 1) // 2) % 4 == 0
        ok = ok and count_solutions(system, a, "p") == (q - 1) // 4
        ok = ok and count_solutions(system, a, "q") == ((p - 1) if hits else 0)
        ok = ok and count_solutions(system, a, "pq") == (1 if hits else 0)
    checks["solution-counts"] = ok

    ok = True
    for i in range(4):
        for j in range(4):
            val = inner_product_check(system, ring, beta, i, j, pows)
            if system.case == CASE1:
                expected = one if i == j else zero
            else:
                expected = one if (i - j) % 4 == 2 else zero
            ok = ok and val == expected
    checks["inner-products"] = ok

    in_z4 = is_constant(rho_value(system, beta, pows)) is not None
    checks["rho-membership"] = in_z4 == (system.two_class == 0)

    return checks
