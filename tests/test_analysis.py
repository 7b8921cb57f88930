import random

import pytest
from hypothesis import given, settings, strategies as st

from gr_reference import mul, power
from z4seq.analysis import (
    _inner_products,
    admissible_pairs,
    analyze,
    defining_poly_formula,
    dft,
    dft_nonzero_count,
    lc_by_count,
    lc_by_theorem,
    power_sums,
    power_table,
    rho_value,
    verify_identities,
)
from z4seq.cli import _SWEEP_COLUMNS, _csv_row
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


def evaluate(poly, u, pows):
    """G(beta^u) = sum_i rho_i beta^(iu), element by element."""
    acc = poly.ring.zero
    for i, c in enumerate(poly.coeffs):
        if c:
            acc = acc + mul(c, pows[i * u % len(poly.coeffs)])
    return acc


def class_sum(system, i, ring, pows, m=1):
    """D_i evaluated at gamma = base^m of the table: sum of gamma^u over u in D_i."""
    return ring.unpack(power_sums(ring, pows, [m], system.members(f"D{i}"))[0])


def test_class_sum_at_one_and_subgroup_points():
    for pair in [(5, 13), (5, 17)]:
        s = build_system(*pair)
        ring, beta = ring_beta(s)
        pows = power_table(beta, s.pq)
        target = ring.scalar(3 * (s.q - 1) // 4)
        for i in range(4):
            # gamma = 1 gives |D_i| = e = 0 (mod 4)
            assert class_sum(s, i, ring, pows, 0) == ring.scalar(s.e)
            for k in range(s.q):
                assert class_sum(s, i, ring, pows, k * s.p % s.pq) == ring.zero
            for k in range(1, s.p):
                assert class_sum(s, i, ring, pows, k * s.q % s.pq) == target


def test_root_of_unity_sums():
    s = build_system(5, 13)
    ring, beta = ring_beta(s)
    pows = power_table(beta, s.pq)
    assert sum((ring.unpack(pows[j * s.p % s.pq]) for j in range(s.q)),
               ring.zero) == ring.zero
    assert sum((ring.unpack(pows[j * s.q % s.pq]) for j in range(s.p)),
               ring.zero) == ring.zero
    units = sum((class_sum(s, i, ring, pows) for i in range(4)), ring.zero)
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
    order13 = power(root_of_unity(ring65, 65), 5)  # order 13, not 65
    with pytest.raises(PeriodMismatch):
        dft(QuaternarySequence(65, (1,) * 65), ring65, order13)


@st.composite
def periodic_digits(draw):
    """A period T = 1 (mod 4) and T digits: uniform, in 2*Z4, one spike, or all zero."""
    T = draw(st.sampled_from((65, 85, 145, 185, 221)))
    kind = draw(st.sampled_from(("uniform", "even", "spike", "zero")))
    if kind == "uniform":
        return T, draw(st.lists(st.integers(0, 3), min_size=T, max_size=T))
    if kind == "even":
        return T, [2 * b for b in draw(st.lists(st.integers(0, 1), min_size=T, max_size=T))]
    digits = [0] * T
    if kind == "spike":
        digits[draw(st.integers(0, T - 1))] = draw(st.integers(1, 3))
    return T, digits


@settings(max_examples=60, deadline=None)
@given(periodic_digits())
def test_coset_count_matches_full_dft(case):
    T, digits = case
    ring = make_ring(mult_order(2, T))
    beta = root_of_unity(ring, T)
    pows = power_table(beta, T)
    seq = QuaternarySequence(T, tuple(digits))
    assert dft_nonzero_count(seq, ring, pows) == lc_by_count(dft(seq, ring, beta, pows))


def test_coset_count_on_paper_sequences():
    pairs = admissible_pairs(200, 200, pq_max=1000)
    assert len(pairs) == 32
    for p, q in pairs:
        s = build_system(p, q)
        ring, beta = ring_beta(s)
        pows = power_table(beta, s.pq)
        seq = generate(s)
        assert dft_nonzero_count(seq, ring, pows) == lc_by_count(dft(seq, ring, beta, pows)), \
            (p, q)


def test_coset_count_rejects_bad_period():
    ring = make_ring(4)
    pows = power_table(root_of_unity(ring, 15), 15)
    with pytest.raises(PeriodNotCongruent1Mod4):
        dft_nonzero_count(QuaternarySequence(15, (1,) * 15), ring, pows)


def test_reconstruction_exhaustive():
    for pair in [(5, 13), (5, 17)]:
        s = build_system(*pair)
        ring, beta = ring_beta(s)
        seq = generate(s)
        poly = dft(seq, ring, beta)
        pows = [ring.unpack(row) for row in power_table(beta, s.pq)]
        for u in range(s.pq):
            assert evaluate(poly, u, pows) == ring.scalar(seq.digits[u])


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
    in_z4 = is_constant(rho_value(s, beta, power_table(beta, s.pq))) is not None
    zero_classes = [i for i in range(4)
                    if poly.coeffs[s.members(f"D{i}")[0]] == ring.zero]
    if in_z4:
        assert len(zero_classes) == 1
        assert lc_by_count(poly) == s.q + 3 * s.e
    else:
        assert not zero_classes
        assert lc_by_count(poly) == s.pq - s.p + 1

    # Case2: coefficient 2 at exponent 0; every coefficient nonzero
    s = build_system(5, 13)
    ring, beta = ring_beta(s)
    poly = defining_poly_formula(s, ring, beta)
    assert poly.coeffs[0] == ring.scalar(2)
    assert lc_by_count(poly) == s.pq


def test_inner_product_patterns():
    # (5, 1321): the constant (q-1)/4 = 330 is reduced mod 4 before it is added
    for pair in [(5, 17), (5, 13), (17, 5), (5, 1321)]:
        s = build_system(*pair)
        ring, beta = ring_beta(s)
        products = _inner_products(s, ring, power_table(beta, s.pq))
        for i in range(4):
            for j in range(4):
                val = ring.unpack(products[i][j])
                if s.case == CASE1:
                    expected = ring.one if i == j else ring.zero
                else:
                    expected = ring.one if (i - j) % 4 == 2 else ring.zero
                assert val == expected, (pair, i, j)


def test_rho_constancy_follows_two_class():
    for pair, expected in [((5, 113), True), ((5, 17), False), ((5, 13), False)]:
        s = build_system(*pair)
        ring, beta = ring_beta(s)
        in_z4 = is_constant(rho_value(s, beta, power_table(beta, s.pq))) is not None
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
    assert _csv_row(rep.to_dict(), _SWEEP_COLUMNS[:8]) == "5,13,Case2,1,65,65,65,true"


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
    pows = power_table(beta, s.pq)
    rho = rho_value(s, beta, pows)
    for _ in range(4):
        l = rng.randrange(4)
        k = rng.choice(s.members(f"D{l}"))
        gamma = power(beta, k)
        shifted = rho_value(s, gamma, power_table(gamma, s.pq))
        total = sum((class_sum(s, i, ring, pows) for i in range(4)), ring.zero)
        expected = rho - mul(ring.scalar(l), total)
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


def swap_classes(system, a, b):
    """The system with class labels a and b exchanged."""
    swap = {a: b, b: a}
    return system._replace(class_of=tuple(swap.get(lab, lab) for lab in system.class_of))


def swap_residues(system, u, v):
    """The system with the labels of residues u and v exchanged."""
    labels = list(system.class_of)
    labels[u], labels[v] = labels[v], labels[u]
    return system._replace(class_of=tuple(labels))


def test_verify_identities_can_fail():
    s = build_system(5, 13)
    ring, beta = ring_beta(s)

    def failing(system):
        checks = verify_identities(system, ring, beta)
        return sorted(name for name, ok in checks.items() if not ok)

    # i -> -i is an automorphism of Z4: swapping D1 and D3 gives the classes
    # of the generator g^-1, a valid system that must pass every identity
    assert failing(swap_classes(s, "D1", "D3")) == []
    assert failing(swap_classes(s, "D1", "D2")) == ["class-shift", "inner-products"]
    assert failing(swap_classes(s, "D0", "D1")) == [
        "class-shift", "inner-products", "partition", "rho-membership",
        "solution-counts"]
    # one residue of D1 traded with one of D2 that differs from it mod q
    u = s.members("D1")[0]
    v = next(w for w in s.members("D2") if (w - u) % s.q)
    assert failing(swap_residues(s, u, v)) == [
        "class-shift", "class-sums", "inner-products"]
    # a unit traded with a multiple of p: the units no longer sum to 1
    assert failing(swap_residues(s, s.members("D0")[0], s.members("P")[0])) == [
        "class-shift", "class-sums", "inner-products", "partition",
        "root-of-unity-sums", "solution-counts"]
