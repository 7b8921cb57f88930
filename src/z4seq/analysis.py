"""Defining polynomials over GR(4, 4^r) and linear complexity by three routes.

The defining polynomial of a period-T sequence is its Galois-ring DFT
rho_i = sum_u s_u beta^(-iu) against a primitive T-th root of unity beta;
for the cyclotomic quaternary sequences the coefficients also follow a
closed form per residue case, and the linear complexity equals the number
of nonzero coefficients.  An LFSR-synthesis oracle cross-checks everything.

Ring data is one (T, r) uint8 array of the coefficient rows of beta^0 ..
beta^(T-1), checked to have order exactly T (`power_table`).  The DFT, the
class sums, rho, the inner products and the identity suite are index-and-sum
reductions over it; a product with a ring value a is a matrix product with
its multiplication matrix M(a).  Single values come back as `GrElement`.
"""

import math
import random
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


# Sums and matrix products of coefficient rows are taken in uint8: the wrap
# mod 256 is harmless because 4 divides 256, so each result is reduced mod 4
# once at the end.

# Bound on the temporaries of one power_sums block: per gathered element, r
# bytes of row plus 8 bytes of int64 index.
_GATHER_BYTES = 1 << 16


def _power_rows(gamma: GrElement, count: int) -> np.ndarray:
    """Rows gamma^0 .. gamma^(count-1), doubling: P[m:2m] = P[:m] @ M(gamma^m)."""
    ring = gamma.ring
    rows = np.zeros((count, ring.r), dtype=np.uint8)
    rows[0, 0] = 1
    step = ring.mul_matrix(gamma.coeffs)
    m = 1
    while m < count:
        k = min(m, count - m)
        rows[m:m + k] = rows[:k] @ step % 4
        step = step @ step % 4
        m *= 2
    return rows


def power_table(beta: GrElement, n: int) -> np.ndarray:
    """(n, r) uint8 rows of beta^0 .. beta^(n-1) after verifying ord(beta) = n."""
    rows = _power_rows(beta, n + 1)
    one = rows[0]
    if (rows[n] != one).any():
        raise PeriodMismatch(f"beta^{n} != 1")
    for d in factorize(n):
        if (rows[n // d] == one).all():
            raise PeriodMismatch(f"ord(beta) divides {n // d} < {n}")
    return rows[:n]


def power_sums(pows: np.ndarray, mults, members) -> np.ndarray:
    """Row k: the sum of pows[mults[k] * w mod n] over w in members, mod 4.

    The gather runs over blocks of mults so its temporaries stay small.
    """
    n, r = pows.shape
    mults = np.asarray(mults, dtype=np.int64)
    members = np.asarray(members, dtype=np.int64)
    out = np.empty((len(mults), r), dtype=np.uint8)
    block = max(1, _GATHER_BYTES // max(1, members.size * (r + 8)))
    for start in range(0, len(mults), block):
        idx = np.outer(mults[start:start + block], members) % n
        out[start:start + block] = pows[idx].sum(axis=1, dtype=np.uint8)
    return out % 4


def _class_rows(system: CyclotomicSystem, pows: np.ndarray) -> np.ndarray:
    """(4, r): D_0 .. D_3 evaluated at the table's base, as coefficient rows."""
    return np.stack([pows[list(system.members(f"D{i}"))].sum(axis=0, dtype=np.uint8)
                     for i in range(4)]) % 4


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


def dft(seq: QuaternarySequence, ring: GaloisRing, beta: GrElement,
        powers: np.ndarray | None = None) -> DefiningPolynomial:
    """Galois-ring DFT of one period; exact inversion needs T = 1 (mod 4).

    `powers` is the checked table `power_table(beta, T)` when the caller has it.
    """
    T = seq.period
    if T % 4 != 1:
        raise PeriodNotCongruent1Mod4(f"period {T} = {T % 4} (mod 4)")
    pows = powers if powers is not None else power_table(beta, T)
    s = np.array(seq.digits, dtype=np.uint8)
    u = np.arange(T)
    coeffs = []
    for i in range(T):
        vec = s @ pows[(-i * u) % T] % 4
        coeffs.append(GrElement(ring, tuple(vec.tolist())))
    return DefiningPolynomial(ring=ring, beta=beta, coeffs=tuple(coeffs))


def class_sum(system: CyclotomicSystem, i: int, gamma: GrElement, powers=None) -> GrElement:
    """D_i evaluated at gamma: sum of gamma^u over u in D_i."""
    pows = powers if powers is not None else _power_rows(gamma, system.pq)
    return gamma.ring.element(_class_rows(system, pows)[i % 4])


def rho_value(system: CyclotomicSystem, beta: GrElement, powers=None) -> GrElement:
    """rho = sum_{i=1..3} i * D_i(beta)."""
    pows = powers if powers is not None else _power_rows(beta, system.pq)
    weights = np.arange(4, dtype=np.uint8)
    return beta.ring.element(weights @ _class_rows(system, pows) % 4)


def defining_poly_formula(system: CyclotomicSystem, ring: GaloisRing,
                          beta: GrElement) -> DefiningPolynomial:
    """Closed-form defining polynomial per residue case.

    Case1: coefficient 2 on exponents jp (0 <= j < q), rho - i on D_i, 0 on Q.
    Case2: coefficient 2 on jq (0 <= j < p) and jp (1 <= j < q), rho + 2 - i on D_i.
    """
    T = system.pq
    if T % 4 != 1:
        raise PeriodNotCongruent1Mod4(f"period {T} = {T % 4} (mod 4)")
    rho = rho_value(system, beta, power_table(beta, T))
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


def _inner_products(system: CyclotomicSystem, ring: GaloisRing,
                    pows: np.ndarray) -> np.ndarray:
    """(4, 4, r): entry (i, j) is C_i . C_j^T + (q-1)/4 as a coefficient row."""
    sums = _class_rows(system, pows)
    mats = np.stack([ring.mul_matrix(row) for row in sums])
    prods = sums @ mats  # prods[b, a] = D_a * D_b
    k = np.arange(4)
    rows = (k[:, None, None] + k) % 4  # [i, _, k] = i + k
    cols = (k[None, :, None] + k) % 4  # [_, j, k] = j + k
    out = prods[rows, cols].sum(axis=2, dtype=np.uint8)
    out[:, :, 0] += (system.q - 1) // 4 % 4
    return out % 4


def inner_product_check(system: CyclotomicSystem, ring: GaloisRing, beta: GrElement,
                        i: int, j: int, powers=None) -> GrElement:
    """C_i(beta) . C_j(beta)^T + (q-1)/4, the scalar reduced mod 4."""
    pows = powers if powers is not None else _power_rows(beta, system.pq)
    return ring.element(_inner_products(system, ring, pows)[i % 4, j % 4])


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
    defpoly = dft(seq, ring, beta, pows)
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
    p, q, n = system.p, system.q, system.pq
    pows = power_table(beta, n)
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

    one = pows[0]
    sum_p = pows[np.arange(q) * p].sum(axis=0) % 4
    sum_q = pows[np.arange(p) * q].sum(axis=0) % 4
    unit_sum = _class_rows(system, pows).sum(axis=0) % 4
    checks["root-of-unity-sums"] = bool(not sum_p.any() and not sum_q.any()
                                        and (unit_sum == one).all())

    ok = True
    target = one * (3 * (q - 1) // 4 % 4)
    for i in range(4):
        # D_i at beta^m is the sum of beta^(m*u) over u in D_i
        members = system.members(f"D{i}")
        ok = ok and not power_sums(pows, np.arange(q) * p, members).any()
        ok = ok and (power_sums(pows, np.arange(1, p) * q, members) == target).all()
    checks["class-sums"] = bool(ok)

    from .cyclotomy import count_solutions

    ok = True
    for a in range(4):
        hits = (a + (q - 1) // 2) % 4 == 0
        ok = ok and count_solutions(system, a, "p") == (q - 1) // 4
        ok = ok and count_solutions(system, a, "q") == ((p - 1) if hits else 0)
        ok = ok and count_solutions(system, a, "pq") == (1 if hits else 0)
    checks["solution-counts"] = ok

    k = np.arange(4)
    if system.case == CASE1:
        expected = k[:, None] == k
    else:
        expected = (k[:, None] - k) % 4 == 2
    products = _inner_products(system, ring, pows)
    checks["inner-products"] = bool(not products[:, :, 1:].any()
                                    and (products[:, :, 0] == expected).all())

    in_z4 = is_constant(rho_value(system, beta, pows)) is not None
    checks["rho-membership"] = in_z4 == (system.two_class == 0)

    return checks
