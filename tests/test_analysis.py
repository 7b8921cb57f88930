import random

import pytest

from z4seq.analysis import (
    admissible_pairs,
    analyze,
    class_sum,
    defining_poly_formula,
    dft,
    inner_product_check,
    lc_by_count,
    lc_by_theorem,
    power_table,
    rho_value,
    verify_identities,
)
from z4seq.cyclotomy import CASE1, build_system
from z4seq.errors import (
    GcdNotFour,
    PeriodMismatch,
    PeriodNotCongruent1Mod4,
)
from z4seq.galois import is_constant, make_ring, root_of_unity
from z4seq.numtheory import mult_order
from z4seq.sequence import QuaternarySequence, generate


def ring_beta(system):
    ring = make_ring(mult_order(2, system.pq))
    return ring, root_of_unity(ring, system.pq)


def test_class_sum_at_one_and_subgroup_points():
    for pair in [(5, 13), (5, 17)]:
        s = build_system(*pair)
        ring, beta = ring_beta(s)
        pows = power_table(beta, s.pq)
        target = ring.scalar(3 * (s.q - 1) // 4)
        for i in range(4):
            # gamma = 1 gives |D_i| = e = 0 (mod 4)
            assert class_sum(s, i, ring.one) == ring.scalar(s.e)
            for k in range(s.q):
                assert class_sum(s, i, pows[k * s.p % s.pq]) == ring.zero
            for k in range(1, s.p):
                assert class_sum(s, i, pows[k * s.q % s.pq]) == target


def test_root_of_unity_sums():
    s = build_system(5, 13)
    ring, beta = ring_beta(s)
    pows = power_table(beta, s.pq)
    assert sum((pows[j * s.p % s.pq] for j in range(s.q)), ring.zero) == ring.zero
    assert sum((pows[j * s.q % s.pq] for j in range(s.p)), ring.zero) == ring.zero
    units = sum((class_sum(s, i, beta, pows) for i in range(4)), ring.zero)
    assert units == ring.one


def test_dft_constant_sequence():
    ring = make_ring(12)
    beta = root_of_unity(ring, 65)
    for c in range(4):
        seq = QuaternarySequence(65, (c,) * 65)
        poly = dft(seq, ring, beta)
        assert poly.coeffs[0] == ring.scalar(c)
        assert all(poly.coeffs[i] == ring.zero for i in range(1, 65))


def test_dft_impulse():
    ring = make_ring(12)
    beta = root_of_unity(ring, 65)
    seq = QuaternarySequence(65, (1,) + (0,) * 64)
    poly = dft(seq, ring, beta)
    assert all(c == ring.one for c in poly.coeffs)
    assert lc_by_count(poly) == 65


def test_dft_zero_and_counts():
    ring = make_ring(12)
    beta = root_of_unity(ring, 65)
    assert lc_by_count(dft(QuaternarySequence(65, (0,) * 65), ring, beta)) == 0


def test_dft_coeff0_of_quaternary_5_13():
    s = build_system(5, 13)
    ring, beta = ring_beta(s)
    poly = dft(generate(s), ring, beta)
    assert poly.coeffs[0] == ring.scalar(2)


def test_dft_rejects_bad_period():
    ring = make_ring(4)
    beta = root_of_unity(ring, 15)
    with pytest.raises(PeriodNotCongruent1Mod4):
        dft(QuaternarySequence(15, (1,) * 15), ring, beta)
    ring65 = make_ring(12)
    order13 = root_of_unity(ring65, 65) ** 5  # order 13, not 65
    with pytest.raises(PeriodMismatch):
        dft(QuaternarySequence(65, (1,) * 65), ring65, order13)


def test_reconstruction_exhaustive():
    for pair in [(5, 13), (5, 17)]:
        s = build_system(*pair)
        ring, beta = ring_beta(s)
        seq = generate(s)
        poly = dft(seq, ring, beta)
        pows = power_table(beta, s.pq)
        for u in range(s.pq):
            assert poly.evaluate(u, pows) == ring.scalar(seq.digits[u])


def test_formula_equals_dft():
    for pair in [(5, 13), (13, 5), (5, 17), (17, 5)]:
        s = build_system(*pair)
        ring, beta = ring_beta(s)
        assert defining_poly_formula(s, ring, beta).coeffs == \
            dft(generate(s), ring, beta).coeffs, pair


def test_formula_structure():
    # Case1: zero on Q; nonzero count follows the rho membership split
    s = build_system(5, 17)
    ring, beta = ring_beta(s)
    poly = defining_poly_formula(s, ring, beta)
    for u in s.members("Q"):
        assert poly.coeffs[u] == ring.zero
    in_z4 = is_constant(rho_value(s, beta)) is not None
    zero_classes = [i for i in range(4)
                    if poly.coeffs[s.members(f"D{i}")[0]] == ring.zero]
    if in_z4:
        assert len(zero_classes) == 1
        assert poly.nonzero_count() == s.q + 3 * s.e
    else:
        assert not zero_classes
        assert poly.nonzero_count() == s.pq - s.p + 1

    # Case2: coefficient 2 at exponent 0; every coefficient nonzero
    s = build_system(5, 13)
    ring, beta = ring_beta(s)
    poly = defining_poly_formula(s, ring, beta)
    assert poly.coeffs[0] == ring.scalar(2)
    assert poly.nonzero_count() == s.pq


def test_inner_product_patterns():
    for pair in [(5, 17), (5, 13), (17, 5)]:
        s = build_system(*pair)
        ring, beta = ring_beta(s)
        pows = power_table(beta, s.pq)
        for i in range(4):
            for j in range(4):
                val = inner_product_check(s, ring, beta, i, j, pows)
                if s.case == CASE1:
                    expected = ring.one if i == j else ring.zero
                else:
                    expected = ring.one if (i - j) % 4 == 2 else ring.zero
                assert val == expected, (pair, i, j)


def test_rho_constancy_follows_two_class():
    for pair, expected in [((5, 113), True), ((5, 17), False), ((5, 13), False)]:
        s = build_system(*pair)
        ring, beta = ring_beta(s)
        in_z4 = is_constant(rho_value(s, beta)) is not None
        assert in_z4 == expected, pair
        assert in_z4 == (s.two_class == 0)


def test_lc_by_theorem_fixtures():
    assert lc_by_theorem(build_system(5, 13)) == 65
    assert lc_by_theorem(build_system(5, 17)) == 81      # 2 in D2: pq - p + 1
    assert lc_by_theorem(build_system(13, 17)) == 209
    assert lc_by_theorem(build_system(5, 113)) == 449    # 2 in D0: q + 3e


def test_lc_branch_two_in_d0():
    s = build_system(5, 113)
    ring = make_ring(28)
    beta = root_of_unity(ring, s.pq)
    poly = dft(generate(s), ring, beta)
    assert lc_by_count(poly) == 449 == lc_by_theorem(s)
    assert defining_poly_formula(s, ring, beta).coeffs == poly.coeffs


def test_analyze_agrees():
    rep = analyze(build_system(5, 13))
    assert rep.lc_formula == rep.lc_dft == rep.lc_reeds_sloane == 65
    assert rep.agree and rep.ring_degree == 12
    assert rep.csv_row() == "5,13,Case2,1,65,65,65,true"


def test_gcd_rejected_before_ring_work():
    with pytest.raises(GcdNotFour):
        build_system(3, 13)


def test_analyze_respects_ring_cap():
    from z4seq.errors import DegreeTooLarge

    system = build_system(5, 37)  # ord of 2 mod 185 is 36
    with pytest.raises(DegreeTooLarge):
        analyze(system, r_max=32)


def test_rho_shift_relation():
    # evaluating rho at beta^k for k in D_l subtracts l from every class index
    s = build_system(5, 13)
    ring, beta = ring_beta(s)
    rng = random.Random(5)
    rho = rho_value(s, beta)
    for _ in range(4):
        l = rng.randrange(4)
        k = rng.choice(s.members(f"D{l}"))
        shifted = rho_value(s, beta ** k)
        total = sum((class_sum(s, i, beta) for i in range(4)), ring.zero)
        expected = rho - ring.scalar(l) * total
        assert shifted == expected


def test_admissible_pairs():
    pairs = admissible_pairs(20, 20, 32)
    assert (5, 13) in pairs and (5, 17) in pairs and (13, 17) in pairs
    assert (17, 5) in pairs and (13, 5) in pairs
    assert all(p != q for p, q in pairs)
    assert (3, 13) not in pairs
    # the r cap filters
    assert admissible_pairs(20, 20, 8) == [(5, 17), (17, 5)]
    assert admissible_pairs(5, 5, 32) == []


def test_verify_identities_all_pass():
    for pair in [(5, 13), (5, 17)]:
        s = build_system(*pair)
        ring, beta = ring_beta(s)
        checks = verify_identities(s, ring, beta)
        assert checks and all(checks.values()), (pair, checks)
