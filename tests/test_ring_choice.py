"""No answer depends on which modulus or which root of unity builds the ring.

Any basic irreducible h of degree ell gives an isomorphic GR(4, 4^ell), and
any other primitive pq-th root of unity is beta^d, d a unit mod pq.  So on
each capped pair with pq <= 3000 the DFT count, the class-by-class theorem,
the trace form and every `verify` line must come out the same on rings of
other moduli and at other roots.  rho itself moves by a known amount: for d
in D_j, D_i(beta^d) = D_(i+j)(beta) and D_0 + ... + D_3 = 1, so
rho(beta^d) = rho(beta) - j.
"""

from test_ring_setup import reference_irreducible
from z4seq import galois
from z4seq.analysis import (_theorem_holds, admissible_pairs, coset_dft, power_table,
                            rho_value, verify_identities)
from z4seq.cyclotomy import build_system, lc_by_theorem
from z4seq.errors import PeriodMismatch
from z4seq.galois import GaloisRing, GrElement, _graeffe_lift, make_ring, root_of_unity
from z4seq.numtheory import mult_order
from z4seq.sequence import generate
from z4seq.trace_repr import check_trace_repr, trace_params

PAIRS = admissible_pairs(600, 600, 64, pq_max=3000)


def assert_same_answers(system, ring, beta):
    """Every answer at beta on ring is the canonical one; returns packed rho."""
    pows = power_table(beta, system.pq)
    rho = rho_value(system, beta, pows)
    count, at_cosets = coset_dft(generate(system), ring, pows)
    assert count == lc_by_theorem(system)
    assert _theorem_holds(system, ring, rho, at_cosets)
    params = trace_params(system, ring, beta)
    assert check_trace_repr(system, ring, beta, params) == (True, None)
    assert all(verify_identities(system, ring, beta).values())
    return rho


def ring_on(f, ell):
    """GR(4, 4^ell) on the Graeffe lift of the irreducible f, checked as `_build_ring` does."""
    ring = GaloisRing(ell, _graeffe_lift(f, ell))
    assert sum((c & 1) << i for i, c in enumerate(ring.modulus)) == f
    x2 = ring.mul(ring.x, ring.x)
    h_x2 = 0
    for c in reversed(ring.modulus):
        h_x2 = (ring.mul(h_x2, x2) + c) & ring.mask
    assert h_x2 == 0
    return ring


def test_other_roots_shift_rho_by_their_class():
    assert len(PAIRS) == 38
    for pair in PAIRS:
        system = build_system(*pair)
        ring = make_ring(mult_order(2, system.pq))
        beta = root_of_unity(ring, system.pq)
        rho = assert_same_answers(system, ring, beta)
        others = [system.classes[f"D{j}"][0] for j in (1, 2, 3)] + [2, system.pq - 1]
        for d in others:
            j = int(system.class_of[d][1])
            shifted = assert_same_answers(system, ring, GrElement(ring, ring.pow(beta.value, d)))
            # + 4: a packed slot 0 below j would borrow from slot 1
            assert shifted == (rho + 4 - j) & ring.mask, (pair, d)


def test_other_moduli_give_the_same_answers():
    others = {}  # ell -> the three smallest irreducible f but the primitive one
    used = refused = below = 0
    for pair in PAIRS:
        system = build_system(*pair)
        ell = mult_order(2, system.pq)
        primitive = galois._smallest_primitive_binary(ell)
        if ell not in others:
            found = []
            for f in range((1 << ell) | 1, 2 << ell, 2):
                if f != primitive and reference_irreducible(f, ell):
                    found.append(f)
                    if len(found) == 3:
                        break
            others[ell] = found
        for f in others[ell]:
            ring = ring_on(f, ell)
            beta = root_of_unity(ring, system.pq)
            try:
                power_table(beta, system.pq)
            except PeriodMismatch:  # x's order is not a multiple of pq
                refused += 1
                continue
            assert_same_answers(system, ring, beta)
            used += 1
            below += f < primitive
    # non-primitive moduli are among those used, and the order check refuses some f
    assert (used, refused, below) == (80, 34, 24)
