"""Defining polynomials over GR(4, 4^r) and linear complexity by three routes.

The defining polynomial of a period-T sequence is its Galois-ring DFT
rho_i = sum_u s_u beta^(-iu) against a primitive T-th root of unity beta;
for the cyclotomic quaternary sequences each coefficient is also a*rho + b,
(a, b) read off the class of its exponent in `cyclotomy.class_coefficients`,
and the linear complexity equals the number of nonzero coefficients.  An
LFSR-synthesis oracle cross-checks everything.

Ring data is one tuple of packed ints (`galois.GaloisRing.pack`), the powers
beta^0 .. beta^(T-1), checked to have order exactly T (`power_table`, which
keeps its last table, so a mirror pair (q, p) reuses that of (p, q)).  One
evaluator reads it: `coset_sums` gives the set sums of beta^(uw) at the
first index u of each 2-cyclotomic coset, and the DFT, the class rows
behind rho and the inner products, the identity suite and the trace form
are all weighted sums of its output.  A set sum at 2u is the Frobenius
image of the one at u, so `walk_cosets` carries values round their
cosets where every index is wanted.  A product with a ring value is one
packed multiply; single values (rho, each DFT coefficient) are packed ints
too, and only output reads their digits (`GaloisRing.digits`).

One function evaluates the DFT: `coset_dft`, at the first index of each
2-cyclotomic coset.  Since sigma is an automorphism, a coset's coefficients
are all zero or all nonzero, so it also counts the nonzero ones, each
weighted by its coset's size.  `analyze` and `lc --method dft` read only
that count and those values, which also check the paper's theorem, class by
class (`_theorem_holds`); `dft` carries them round their cosets into the
full coefficient tuple.
"""

import math
from functools import lru_cache

from .cyclotomy import (D_LABELS, LABELS, CyclotomicSystem, class_coefficients,
                        count_solutions, lc_by_theorem)
from .errors import PeriodMismatch, PeriodNotCongruent1Mod4
from .galois import GaloisRing, GrElement, is_constant, make_ring, root_of_unity
from .numtheory import R_MAX, factorize, is_prime, mult_order


def _ring_and_beta(system: CyclotomicSystem, r_max: int) -> tuple:
    """GR(4, 4^ord_2(pq)) under the degree cap r_max, and its primitive pq-th root beta."""
    ring = make_ring(mult_order(2, system.pq), r_max)
    return ring, root_of_unity(ring, system.pq)


@lru_cache(maxsize=1)
def power_table(beta: GrElement, n: int) -> tuple:
    """Packed beta^0 .. beta^(n-1) after verifying ord(beta) = n.

    The last table is kept, keyed by beta (its ring, by identity, and its
    value) and n, so a second call for the same root, such as a mirror
    pair's, returns it unbuilt; a failed check keeps nothing.  A tuple, so
    no caller can change the shared copy.
    """
    ring, step = beta.ring, beta.value
    pows = [1]
    for _ in range(n):
        pows.append(ring.mul(pows[-1], step))
    if pows.pop() != 1:
        raise PeriodMismatch(f"beta^{n} != 1")
    for d in factorize(n):
        if pows[n // d] == 1:
            raise PeriodMismatch(f"ord(beta) divides {n // d} < {n}")
    return tuple(pows)


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


def coset_sums(ring: GaloisRing, pows: tuple, us, sets) -> list:
    """[(coset, sums)] for each 2-cyclotomic coset mod n = len(pows) through us.

    sums holds, for each index set S in sets, the packed sum of beta^(uw)
    over w in S at the coset's first index u; at 2u each sum is sigma of the
    one at u, which `walk_cosets` applies.  us lies in range(n).
    """
    n = len(pows)
    out = []
    for coset in orbits(n, us):
        u = coset[0]
        out.append((coset, tuple(ring.sum([pows[u * w % n] for w in members])
                                 for members in sets)))
    return out


def walk_cosets(ring: GaloisRing, pairs) -> dict:
    """{u: values} from (coset, values at its first index) pairs, sigma per step."""
    out = {}
    for coset, vals in pairs:
        out[coset[0]] = vals
        for u in coset[1:]:
            vals = tuple(ring.sigma(v) for v in vals)
            out[u] = vals
    return out


def _class_rows(system: CyclotomicSystem, ring: GaloisRing, pows: tuple) -> tuple:
    """D_0 .. D_3 evaluated at the table's base, packed."""
    [(_, rows)] = coset_sums(ring, pows, [1], [system.classes[lab] for lab in D_LABELS])
    return rows


def _rho(ring: GaloisRing, rows: tuple) -> int:
    """Packed rho = sum_{i=1..3} i * D_i(beta) from the class rows D_0 .. D_3 at beta."""
    return sum(i * d for i, d in enumerate(rows)) & ring.mask


def coset_dft(seq: "QuaternarySequence", ring: GaloisRing, powers: tuple) -> tuple:
    """(count, [(coset, rho_i)]): the DFT at i, each 2-cyclotomic coset's first index.

    rho_2i = sigma(rho_i) and sigma is a ring automorphism, so the
    coefficients of a coset are all zero or all nonzero; count, the number
    of nonzero coefficients, weights each nonzero rho_i by its coset's size.
    Any odd T, a unit in Z4, will do (`root_of_unity` rejects even T); only
    `dft`'s exact inversion needs T = 1 (mod 4).  `powers` is `power_table(beta, T)`.
    """
    T = seq.period
    # rho_i = S_1 + 2 S_2 + 3 S_3, S_d the sum of beta^(i(-u)) over the u with s_u = d
    groups = [[-u % T for u, s in enumerate(seq.digits) if s == d] for d in (1, 2, 3)]
    pairs = [(coset, (a + 2 * b + 3 * c) & ring.mask)
             for coset, (a, b, c) in coset_sums(ring, powers, range(T), groups)]
    return sum(len(c) for c, v in pairs if v), pairs


def dft(seq: "QuaternarySequence", ring: GaloisRing, beta: GrElement) -> tuple:
    """Packed DFT coefficients rho_0 .. rho_(T-1) of one period against beta."""
    T = seq.period
    if T % 4 != 1:  # named before power_table finds beta of the wrong order
        raise PeriodNotCongruent1Mod4(f"period {T} = {T % 4} (mod 4)")
    _, pairs = coset_dft(seq, ring, power_table(beta, T))
    # rho_2i = sigma(rho_i): sigma fixes the digits and sends beta to beta^2
    out = walk_cosets(ring, [(c, (v,)) for c, v in pairs])
    return tuple(out[u][0] for u in range(T))


def _theorem_holds(system: CyclotomicSystem, ring: GaloisRing, rho: int,
                   at_cosets: list) -> bool:
    """The paper's theorem on the (coset, rho_i) pairs of `coset_dft`.

    Each rho_i equals a*rho + b, (a, b) the entry of i's class in
    `cyclotomy.class_coefficients`.  The other indices follow from
    sigma(rho) = rho - t, 2 in D_t: doubling maps D_i to D_(i+t) and fixes
    R, P and Q, whose coefficients are in Z4.
    """
    table = class_coefficients(system)
    for coset, value in at_cosets:
        a, b = table[system.class_of[coset[0]]]
        if value != (a * rho + b) & ring.mask:
            return False
    return ring.sigma(rho) == (rho + 4 - system.two_class) & ring.mask


def rho_value(system: CyclotomicSystem, beta: GrElement, powers: tuple) -> int:
    """Packed rho = sum_{i=1..3} i * D_i(beta); `powers` is `power_table(beta, pq)`."""
    return _rho(beta.ring, _class_rows(system, beta.ring, powers))


def _inner_products(system: CyclotomicSystem, ring: GaloisRing, rows: tuple) -> list:
    """4 x 4 packed: entry (i, j) is C_i . C_j^T + (q-1)/4; rows is `_class_rows`."""
    prods = [[ring.mul(a, b) for b in rows] for a in rows]
    const = (system.q - 1) // 4 % 4
    return [[(sum(prods[(i + k) % 4][(j + k) % 4] for k in range(4)) + const) & ring.mask
             for j in range(4)] for i in range(4)]


def lc_by_count(coeffs: tuple) -> int:
    """Linear complexity as the number of nonzero DFT coefficients."""
    return sum(1 for c in coeffs if c)


def analyze(system: CyclotomicSystem, r_max: int = R_MAX) -> dict:
    """Full pipeline: formula vs DFT count vs Reeds-Sloane on two periods.

    Returns one row, a dict in output key order; rho is its Z4 digits.  The
    routes agree when the three lengths are equal, the synthesized register
    passes its own annihilation check and the DFT coefficients the count
    reads obey the paper's theorem (`_theorem_holds`).
    """
    from .lfsr import reeds_sloane  # here, so verify, trace and defpoly never load lfsr
    from .sequence import generate  # and verify never loads sequence

    ring, beta = _ring_and_beta(system, r_max)
    seq = generate(system)
    pows = power_table(beta, system.pq)
    rho = rho_value(system, beta, pows)
    lc_formula = lc_by_theorem(system)
    lc_dft, at_cosets = coset_dft(seq, ring, pows)
    synth = reeds_sloane(seq.digits * 2)
    agree = (lc_formula == lc_dft == synth.length and synth.annihilates
             and _theorem_holds(system, ring, rho, at_cosets))
    return {"p": system.p, "q": system.q, "case": system.case,
            "two_class": system.two_class, "rho": ring.digits(rho),
            "rho_in_z4": is_constant(rho), "lc_formula": lc_formula, "lc_dft": lc_dft,
            "lc_reeds_sloane": synth.length, "agree": agree, "ring_degree": ring.r}


def admissible_pairs(p_max: int, q_max: int, r_max: int = R_MAX,
                     pq_max: int | None = None) -> list:
    """Pairs (p, q) in increasing order: p != q, gcd(p-1, q-1) = 4, ord_2(pq) <= r_max."""
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
    return out


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

    sizes = {lab: len(system.classes[lab]) for lab in LABELS}
    checks["partition"] = (
        all(sizes[lab] == system.e for lab in D_LABELS)
        and sizes["P"] == q - 1 and sizes["Q"] == p - 1 and sizes["R"] == 1
        and sum(sizes.values()) == n
        and system.class_of[pow(system.h, 4, n)] == D_LABELS[0]
    )

    # D_j[0] * D_i == D_(i+j) for all 16 (i, j)
    d_sets = [frozenset(system.classes[lab]) for lab in D_LABELS]
    checks["class-shift"] = all(
        frozenset(system.classes[D_LABELS[j]][0] * v % n for v in d_sets[i])
        == d_sets[(i + j) % 4]
        for i in range(4) for j in range(4))

    [(_, (sum_p, sum_q))] = coset_sums(ring, pows, [1], [range(0, n, p), range(0, n, q)])
    rows = _class_rows(system, ring, pows)
    checks["root-of-unity-sums"] = sum_p == 0 and sum_q == 0 and ring.sum(rows) == 1

    # D_i at beta^m, m = kp and m = kq, at one m per coset: sigma is injective
    # and fixes 0 and the Z4 target, so a coset's first value is one of them
    # exactly when all its values are
    target = 3 * (q - 1) // 4 % 4
    at_p = coset_sums(ring, pows, range(0, n, p), d_sets)
    at_q = coset_sums(ring, pows, range(q, n, q), d_sets)
    checks["class-sums"] = (all(v == 0 for _, sums in at_p for v in sums)
                            and all(v == target for _, sums in at_q for v in sums))

    # -1 lies in D_t, t = (q-1)/2 mod 4: 0 in Case1, 2 in Case2
    t = (q - 1) // 2 % 4
    ok = True
    for a in range(4):
        hits = (a + t) % 4 == 0
        ok = ok and count_solutions(system, a, p) == (q - 1) // 4
        ok = ok and count_solutions(system, a, q) == ((p - 1) if hits else 0)
        ok = ok and count_solutions(system, a, n) == (1 if hits else 0)
    checks["solution-counts"] = ok

    expected = [[int((i - j) % 4 == t) for j in range(4)] for i in range(4)]
    checks["inner-products"] = _inner_products(system, ring, rows) == expected
    checks["rho-membership"] = is_constant(_rho(ring, rows)) == (system.two_class == 0)

    return checks
