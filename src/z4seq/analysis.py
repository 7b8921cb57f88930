"""Defining polynomials over GR(4, 4^r) and linear complexity by three routes.

The defining polynomial of a period-T sequence is its Galois-ring DFT
rho_i = sum_u s_u beta^(-iu) against a primitive T-th root of unity beta;
for the cyclotomic quaternary sequences each coefficient is also a*rho + b,
(a, b) read off the class of its exponent in `cyclotomy.class_coefficients`,
and the linear complexity equals the number of nonzero coefficients.  An
LFSR-synthesis oracle cross-checks everything.

Ring data is one list of packed ints (`galois.GaloisRing.pack`), the powers
beta^0 .. beta^(T-1), checked to have order exactly T (`power_table`).  The
DFT, the class sums, rho, the inner products and the identity suite are
masked int sums over it, and a product with a ring value is one packed
multiply.  Values indexed by u whose entry at 2u is the Frobenius image of
the entry at u (the DFT coefficients, set sums of beta^(uw)) are computed
once per 2-cyclotomic coset and carried round the coset by the Frobenius
map (`frobenius_fill`).  Single values come back as `GrElement`.

`analyze` never fills the DFT: since sigma is an automorphism, a coset's
coefficients are all zero or all nonzero, so it counts the nonzero ones from
one coefficient per coset, weighted by the coset's size (`dft_nonzero_count`).
"""

import math
from collections import namedtuple

from .cyclotomy import (
    CyclotomicSystem, class_coefficients, count_solutions, lc_by_theorem,
)
from .errors import PeriodMismatch, PeriodNotCongruent1Mod4
from .galois import GaloisRing, GrElement, is_constant, make_ring, root_of_unity
from .numtheory import R_MAX, factorize, is_prime, mult_order
from .sequence import QuaternarySequence, generate


def _ring_and_beta(system: CyclotomicSystem, r_max: int) -> tuple:
    """GR(4, 4^ord_2(pq)) under the degree cap r_max, and its primitive pq-th root beta."""
    ring = make_ring(mult_order(2, system.pq), r_max)
    return ring, root_of_unity(ring, system.pq)


def power_table(beta: GrElement, n: int) -> list:
    """Packed beta^0 .. beta^(n-1) after verifying ord(beta) = n."""
    ring = beta.ring
    step = ring.pack(beta.coeffs)
    pows = [1]
    for _ in range(n):
        pows.append(ring.mul(pows[-1], step))
    if pows.pop() != 1:
        raise PeriodMismatch(f"beta^{n} != 1")
    for d in factorize(n):
        if pows[n // d] == 1:
            raise PeriodMismatch(f"ord(beta) divides {n // d} < {n}")
    return pows


def power_sums(ring: GaloisRing, pows: list, mults, members) -> list:
    """Entry k: the packed sum of pows[mults[k] * w mod n] over w in members."""
    n = len(pows)
    return [ring.sum([pows[m * w % n] for w in members]) for m in mults]


def orbits(n: int, us, step: int = 2) -> list:
    """The orbits of u -> step*u mod n through us, in the order first met.

    Each orbit is a tuple starting at the first of its indices met in us.
    step must be prime to n, so that the map permutes the residues mod n.
    """
    seen = bytearray(n)
    out = []
    for u in us:
        orbit = []
        while not seen[u]:
            seen[u] = 1
            orbit.append(u)
            u = step * u % n
        if orbit:
            out.append(tuple(orbit))
    return out


def frobenius_fill(ring: GaloisRing, n: int, us, values_at) -> list:
    """values_at(us), computed at one index per 2-cyclotomic coset mod n.

    values_at maps a list of indices to one tuple of packed ring values per
    index, and must satisfy value(2u) = sigma(value(u)); each coset is
    filled from its first index by stepping u -> 2u, applying sigma.
    """
    us = [u % n for u in us]
    cosets = orbits(n, us)
    out = {}
    for coset, vals in zip(cosets, values_at([c[0] for c in cosets])):
        out[coset[0]] = vals
        for u in coset[1:]:
            vals = tuple(ring.sigma(v) for v in vals)
            out[u] = vals
    return [out[u] for u in us]


def _class_rows(system: CyclotomicSystem, ring: GaloisRing, pows: list) -> list:
    """D_0 .. D_3 evaluated at the table's base, packed."""
    return [ring.sum([pows[u] for u in system.members(f"D{i}")]) for i in range(4)]


def _dft_at(seq: QuaternarySequence, ring: GaloisRing, pows: list, reps) -> list:
    """Packed rho_i = sum_u s_u beta^(-iu) for each i in reps; pows is the power table."""
    groups = [[u for u, s in enumerate(seq.digits) if s == d] for d in (1, 2, 3)]
    neg = [-i for i in reps]
    s1, s2, s3 = (power_sums(ring, pows, neg, group) for group in groups)
    return [(a + 2 * b + 3 * c) & ring.mask for a, b, c in zip(s1, s2, s3)]


class DefiningPolynomial(namedtuple("DefiningPolynomial", "ring beta coeffs")):
    """DFT coefficient vector rho_0..rho_{T-1} with its root of unity."""

    __slots__ = ()


def dft(seq: QuaternarySequence, ring: GaloisRing, beta: GrElement,
        powers: list | None = None) -> DefiningPolynomial:
    """Galois-ring DFT of one period; exact inversion needs T = 1 (mod 4).

    `powers` is the checked table `power_table(beta, T)` when the caller has it.
    """
    T = seq.period
    if T % 4 != 1:
        raise PeriodNotCongruent1Mod4(f"period {T} = {T % 4} (mod 4)")
    pows = powers if powers is not None else power_table(beta, T)

    def coefficients(reps):
        return [(v,) for v in _dft_at(seq, ring, pows, reps)]

    # rho_2i = sigma(rho_i): sigma fixes the digits and sends beta to beta^2
    coeffs = [ring.unpack(v) for (v,) in frobenius_fill(ring, T, range(T), coefficients)]
    return DefiningPolynomial(ring=ring, beta=beta, coeffs=tuple(coeffs))


def dft_nonzero_count(seq: QuaternarySequence, ring: GaloisRing, powers: list) -> int:
    """lc_by_count(dft(seq, ...)), from one coefficient per 2-cyclotomic coset.

    rho_2i = sigma(rho_i) and sigma is a ring automorphism, so the
    coefficients of a coset are all zero or all nonzero; each nonzero one
    found counts for its whole coset.  `powers` is `power_table(beta, T)`.
    """
    T = seq.period
    if T % 4 != 1:
        raise PeriodNotCongruent1Mod4(f"period {T} = {T % 4} (mod 4)")
    cosets = orbits(T, range(T))
    values = _dft_at(seq, ring, powers, [c[0] for c in cosets])
    return sum(len(c) for c, v in zip(cosets, values) if v)


def rho_value(system: CyclotomicSystem, beta: GrElement, powers: list) -> GrElement:
    """rho = sum_{i=1..3} i * D_i(beta); `powers` is `power_table(beta, pq)`."""
    ring = beta.ring
    _, d1, d2, d3 = _class_rows(system, ring, powers)
    return ring.unpack((d1 + 2 * d2 + 3 * d3) & ring.mask)


def defining_poly_formula(system: CyclotomicSystem, ring: GaloisRing,
                          beta: GrElement) -> DefiningPolynomial:
    """Closed-form defining polynomial: each class's coefficient a*rho + b.

    (a, b) is the class's entry in `cyclotomy.class_coefficients`.
    """
    T = system.pq
    if T % 4 != 1:
        raise PeriodNotCongruent1Mod4(f"period {T} = {T % 4} (mod 4)")
    rho = ring.pack(rho_value(system, beta, power_table(beta, T)).coeffs)
    coeff = {label: ring.unpack((a * rho + b) & ring.mask)
             for label, (a, b) in class_coefficients(system).items()}
    coeffs = tuple(coeff[label] for label in system.class_of)
    return DefiningPolynomial(ring=ring, beta=beta, coeffs=coeffs)


def _inner_products(system: CyclotomicSystem, ring: GaloisRing, pows: list) -> list:
    """4 x 4 packed: entry (i, j) is C_i . C_j^T + (q-1)/4."""
    sums = _class_rows(system, ring, pows)
    prods = [[ring.mul(a, b) for b in sums] for a in sums]
    const = (system.q - 1) // 4 % 4
    return [[(sum(prods[(i + k) % 4][(j + k) % 4] for k in range(4)) + const) & ring.mask
             for j in range(4)] for i in range(4)]


def lc_by_count(defpoly: DefiningPolynomial) -> int:
    """Linear complexity as the number of nonzero DFT coefficients."""
    return sum(1 for c in defpoly.coeffs if c)


class AnalysisReport(namedtuple("AnalysisReport", (
        "p q case two_class rho rho_in_z4 lc_formula lc_dft lc_reeds_sloane "
        "agree ring_degree"))):
    """Cross-checked linear-complexity results for one (p, q).

    A tuple: JSON output goes through `to_dict`, never the record itself.
    """

    __slots__ = ()

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
    """Full pipeline: formula vs DFT count vs Reeds-Sloane on two periods.

    The routes agree when the three lengths are equal and the synthesized
    register passes its own annihilation check.
    """
    from .lfsr import reeds_sloane  # here, so verify, trace and defpoly never load lfsr

    ring, beta = _ring_and_beta(system, r_max)
    seq = generate(system)
    pows = power_table(beta, system.pq)
    rho = rho_value(system, beta, pows)
    lc_formula = lc_by_theorem(system)
    lc_dft = dft_nonzero_count(seq, ring, pows)
    synth = reeds_sloane(seq.digits * 2)
    agree = lc_formula == lc_dft == synth.length and synth.annihilates
    return AnalysisReport(
        p=system.p, q=system.q, case=system.case, two_class=system.two_class,
        rho=rho, rho_in_z4=is_constant(rho) is not None, lc_formula=lc_formula,
        lc_dft=lc_dft, lc_reeds_sloane=synth.length, agree=agree, ring_degree=ring.r,
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
                      beta: GrElement) -> dict:
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

    # D_j[0] * D_i == D_(i+j) for all 16 (i, j)
    d_sets = [frozenset(system.members(f"D{i}")) for i in range(4)]
    checks["class-shift"] = all(
        frozenset(system.members(f"D{j}")[0] * v % n for v in d_sets[i])
        == d_sets[(i + j) % 4]
        for i in range(4) for j in range(4))

    sum_p = ring.sum([pows[k * p] for k in range(q)])
    sum_q = ring.sum([pows[k * q] for k in range(p)])
    unit_sum = ring.sum(_class_rows(system, ring, pows))
    checks["root-of-unity-sums"] = sum_p == 0 and sum_q == 0 and unit_sum == 1

    # D_i at beta^m is the sum of beta^(m*u) over u in D_i; at the prime-order
    # points m = kp and m = kq it is carried round each coset by sigma
    classes = [system.members(f"D{i}") for i in range(4)]

    def class_sums(reps):
        return list(zip(*(power_sums(ring, pows, reps, members) for members in classes)))

    target = 3 * (q - 1) // 4 % 4
    at_p = frobenius_fill(ring, n, [k * p for k in range(q)], class_sums)
    at_q = frobenius_fill(ring, n, [k * q for k in range(1, p)], class_sums)
    checks["class-sums"] = (all(v == 0 for vals in at_p for v in vals)
                            and all(v == target for vals in at_q for v in vals))

    ok = True
    for a in range(4):
        hits = (a + (q - 1) // 2) % 4 == 0
        ok = ok and count_solutions(system, a, "p") == (q - 1) // 4
        ok = ok and count_solutions(system, a, "q") == ((p - 1) if hits else 0)
        ok = ok and count_solutions(system, a, "pq") == (1 if hits else 0)
    checks["solution-counts"] = ok

    # -1 lies in D_t, t = (q-1)/2 mod 4: 0 in Case1, 2 in Case2
    t = (q - 1) // 2 % 4
    expected = [[int((i - j) % 4 == t) for j in range(4)] for i in range(4)]
    checks["inner-products"] = _inner_products(system, ring, pows) == expected

    in_z4 = is_constant(rho_value(system, beta, pows)) is not None
    checks["rho-membership"] = in_z4 == (system.two_class == 0)

    return checks
